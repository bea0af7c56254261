package main

import (
	"context"
	"fmt"
	"maps"
	"strconv"
	"time"

	"eend"
	"eend/internal/cache"
	"eend/internal/obs"
	"eend/sweep"
)

// sweepLeg is one grid shape of a sweep-cold round; each round runs every
// leg over fresh derived seeds.
type sweepLeg struct {
	nodes  int
	field  string
	dur    string
	stacks []any
	seeds  int // derived seeds per round
}

// sweepWorkers is the sweep.Runner's concurrency: one simulation per CPU
// of the 2-CPU machine the benchmark is sized for.
const sweepWorkers = 2

// sweepParams sizes the sweep-cold workload.
type sweepParams struct {
	legs    []sweepLeg
	quality int // rounds in the fixed quality set
}

func sweepParamsFor(tiny bool) sweepParams {
	if tiny {
		return sweepParams{quality: 1, legs: []sweepLeg{
			{nodes: 12, field: "300", dur: "40s", stacks: []any{"titan/odpm", "dsr/odpm"}, seeds: 1},
			{nodes: 30, field: "400", dur: "40s", stacks: []any{"titan/odpm"}, seeds: 1},
		}}
	}
	side, err := eend.ParseFieldPreset("field-1k")
	if err != nil {
		panic(err) // the preset is built in
	}
	return sweepParams{quality: 2, legs: []sweepLeg{
		// The paper's field: 50 nodes in 500 m, 10 flows, 300 s.
		{nodes: 50, field: "500", dur: "300s", stacks: []any{"titan/odpm", "dsr/odpm", "dsdv/odpm", "titan-pc/odpm"}, seeds: 2},
		// field-1k for 60 s. dsdv/odpm is left out: at this size it takes
		// about 38 s a point (README.md).
		{nodes: side.Nodes, field: strconv.FormatFloat(side.Side, 'f', -1, 64), dur: "60s", stacks: []any{"titan/odpm", "dsr/odpm"}, seeds: 1},
	}}
}

// sweepRound returns round r's grids, one per leg; every leg of every
// round gets seeds of its own, so no point shares work with another.
func sweepRound(prm sweepParams, seed uint64, r int) []*sweep.Grid {
	perRound := 0
	for _, l := range prm.legs {
		perRound += l.seeds
	}
	k := r * perRound
	grids := make([]*sweep.Grid, len(prm.legs))
	for i, l := range prm.legs {
		seeds := make([]any, l.seeds)
		for j := range seeds {
			seeds[j] = derive(seed, k)
			k++
		}
		grids[i] = sweep.NewGrid().
			Axis("nodes", l.nodes).Axis("field", l.field).Axis("flows", 10).Axis("dur", l.dur).
			Axis("stack", l.stacks...).Axis("seed", seeds...)
	}
	return grids
}

// timedStore times every cache operation of the store the benchmark
// passes in.
type timedStore struct {
	cache.Store
	sp *spans
}

func (s timedStore) Get(key string) ([]byte, bool, error) {
	t := time.Now()
	v, ok, err := s.Store.Get(key)
	s.sp.add("cache.get", time.Since(t))
	return v, ok, err
}

func (s timedStore) Put(key string, value []byte) error {
	t := time.Now()
	err := s.Store.Put(key, value)
	s.sp.add("cache.put", time.Since(t))
	return err
}

// sweepCounts are the deterministic simulator counts of a set of points.
type sweepCounts struct {
	energy                                             float64
	events, unicast, collisions, retries, fwd, control uint64
}

func (c *sweepCounts) add(res *eend.Results) {
	c.energy += res.Energy.Total()
	c.events += res.Events
	c.unicast += res.MAC.UnicastSent
	c.collisions += res.MAC.CollisionsSeen
	c.retries += res.MAC.Retries
	rt := res.Routing
	c.fwd += rt.DataForwarded
	c.control += rt.RREQSent + rt.RREPSent + rt.RERRSent + rt.UpdatesSent
}

// sweepGrid runs one grid through a cold sweep.Runner on store and
// checks every point. It returns the points that passed, keyed by
// scenario fingerprint.
func sweepGrid(ctx context.Context, g *sweep.Grid, store cache.Store, tr *obs.Tracer, sp *spans, rep *report) (map[string]sweep.Result, error) {
	runner := sweep.Runner{Workers: sweepWorkers, Cache: store, Trace: tr}
	var prep *sweep.Prepared
	if err := sp.do("sweep.prepare", func() (err error) {
		prep, err = runner.Prepare(g)
		return err
	}); err != nil {
		return nil, err
	}
	total := prep.Total()
	ok := make(map[string]sweep.Result, total)
	got := 0
	err := sp.do("sweep.stream", func() error {
		ch, err := prep.Stream(ctx)
		if err != nil {
			return err
		}
		for res := range ch {
			got++
			err := checkPoint(res.Results, res.Err)
			rep.op(fmt.Sprintf("point %s", res.Fingerprint[:12]), err)
			if err == nil {
				ok[res.Fingerprint] = res
			}
		}
		return ctx.Err()
	})
	if err != nil {
		return nil, err
	}
	for range total - got {
		rep.op("point", fmt.Errorf("sweep delivered %d of %d points", got, total))
	}
	return ok, nil
}

// runSweep is the sweep-cold workload: rounds of cold sweeps over the
// paper's 50-node field and a field-1k leg on a fresh in-memory store, so
// every cache operation is a miss followed by a write and every point is
// simulated.
func runSweep(ctx context.Context, cfg config) (*report, error) {
	prm := sweepParamsFor(cfg.Tiny)
	rep := newReport()
	sp := newSpans(cfg.Trace)
	var tr *obs.Tracer
	var store cache.Store = cache.NewMem()
	if cfg.Trace {
		tr = obs.NewTracer(obs.TraceID(fmt.Sprint("sweep-cold/", cfg.Seed)), obs.NewMemSink())
		store = timedStore{Store: store, sp: sp}
	}

	// Time to ready: expanding and materializing the first round's grids.
	setup := &setupTimer{setup: func() error {
		for _, g := range sweepRound(prm, cfg.Seed, 0) {
			if _, err := (sweep.Runner{Workers: sweepWorkers}).Prepare(g); err != nil {
				return err
			}
		}
		return nil
	}}
	if err := setup.repeat(setupBefore); err != nil {
		return nil, err
	}

	var (
		costs    []unitCost
		quality  sweepCounts
		quality0 = map[string]*eend.Results{} // by scenario fingerprint
		direct   samples
		directEv uint64
	)
	reg0 := scrapeLocal()
	t0 := time.Now()
	for r := 0; !measured(t0, cfg, r, prm.quality); r++ {
		start, cpu0, alloc0 := time.Now(), selfCPUSeconds(), allocMB()
		round := map[string]sweep.Result{}
		for _, g := range sweepRound(prm, cfg.Seed, r) {
			pts, err := sweepGrid(ctx, g, store, tr, sp, rep)
			if err != nil {
				return nil, err
			}
			maps.Copy(round, pts)
		}
		cost := unitCost{wall: time.Since(start), ops: len(round), cpuS: selfCPUSeconds() - cpu0, allocM: allocMB() - alloc0}
		for fp, res := range round {
			cost.work += float64(res.Results.Events)
			if r < prm.quality {
				quality.add(res.Results)
				quality0[fp] = res.Results
			}
		}
		costs = append(costs, cost)
		if !cfg.Trace {
			continue
		}
		// Per-point layer timings: a fresh scenario's fingerprint, and a
		// direct Run of the point, which must reproduce the sweep's result
		// exactly.
		for fp, res := range round {
			sc, err := res.Point.Scenario()
			if err != nil {
				return nil, err
			}
			t := time.Now()
			fp2 := sc.Fingerprint()
			sp.add("eend.fingerprint", time.Since(t))
			t = time.Now()
			out, err := sc.Run(ctx)
			d := time.Since(t)
			sp.add("network.run", d)
			if err == nil {
				err = checkSame("point fingerprint", fp, fp2)
			}
			if err == nil {
				err = checkSame("point results", res.Results.Fingerprint(), out.Fingerprint())
				direct = append(direct, d)
				directEv += out.Events
			}
			rep.op("direct run "+fp[:12], err)
		}
	}
	reg1 := scrapeLocal()
	rep.set("energy_j", quality.energy)
	if err := setMedians(rep, costs); err != nil {
		return nil, err
	}

	// Determinism guard: round 0 again, cold, in the other tracing mode.
	var gtr *obs.Tracer
	if !cfg.Trace {
		gtr = obs.NewTracer(obs.TraceID("sweep-cold/guard"), obs.NewMemSink())
	}
	gsp := newSpans(true)
	gstore := cache.NewMem()
	for _, g := range sweepRound(prm, cfg.Seed, 0) {
		pts, err := sweepGrid(ctx, g, gstore, gtr, gsp, rep)
		if err != nil {
			return nil, err
		}
		for fp, res := range pts {
			err := fmt.Errorf("point not in the quality set")
			if want, ok := quality0[fp]; ok {
				err = checkSame("point results", want.Fingerprint(), res.Results.Fingerprint())
			}
			rep.op("determinism guard "+fp[:12], err)
		}
	}

	rep.set("sweep.prepare_ms", ms(sp.of("sweep.prepare").median()))
	rep.set("eend.fingerprint_us", us(sp.of("eend.fingerprint").median()))
	q := tailQ(len(direct))
	rep.set("network.run_ms_p50", ms(direct.median()))
	rep.set("network.run_ms_ptail", ms(direct.quantile(q)))
	rep.set("network.run_ms_ptail_q", 100*q)
	rep.set("network.run_samples", float64(len(direct)))
	rep.set("network.ns_per_event", ratio(float64(direct.sum().Nanoseconds()), float64(directEv)))
	rep.set("sim.events", float64(quality.events))
	rep.set("mac.unicast", float64(quality.unicast))
	rep.set("mac.collisions", float64(quality.collisions))
	rep.set("mac.retries", float64(quality.retries))
	rep.set("routing.forwarded", float64(quality.fwd))
	rep.set("routing.control", float64(quality.control))
	st := store.Stats()
	rep.set("cache.put_us", us(sp.of("cache.put").median()))
	rep.set("cache.miss_ratio", ratio(float64(st.Misses), float64(st.Hits+st.Misses)))
	busy := reg1.delta(reg0, "eend_exec_busy_seconds_total")
	rep.set("exec.busy_s", busy)
	stream := sp.of("sweep.stream").sum()
	rep.set("exec.utilization", ratio(busy, stream.Seconds()*float64(sweepWorkers)))
	if cfg.Trace {
		// Round 0 once more, traced, right after its untraced run: the
		// traced run's own overhead.
		tsp := newSpans(true)
		tstore := timedStore{Store: cache.NewMem(), sp: tsp}
		for _, g := range sweepRound(prm, cfg.Seed, 0) {
			if _, err := sweepGrid(ctx, g, tstore, tr, tsp, rep); err != nil {
				return nil, err
			}
		}
		rep.set("trace.overhead_pct", overheadPct(
			tsp.of("sweep.prepare").sum()+tsp.of("sweep.stream").sum(),
			gsp.of("sweep.prepare").sum()+gsp.of("sweep.stream").sum()))
	}
	if err := setup.repeat(setupReps - setupBefore); err != nil {
		return nil, err
	}
	rep.set("setup_s", setup.s.median().Seconds())
	return rep, nil
}
