package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"eend"
	"eend/internal/core"
	"eend/internal/obs"
	"eend/opt"
)

// designParams sizes the design-field1k workload.
type designParams struct {
	preset     string
	flows      int
	dur        time.Duration
	iterations int // anneal evaluations per search
	quality    int // instances in the fixed quality set
	guard      int // instances the determinism guard re-runs
}

func designParamsFor(tiny bool) designParams {
	if tiny {
		return designParams{preset: "field-100", flows: 4, dur: 300 * time.Second, iterations: 60, quality: 2, guard: 1}
	}
	return designParams{preset: "field-1k", flows: 8, dur: 300 * time.Second, iterations: 600, quality: 24, guard: 2}
}

// presetScenario is a constant-density field preset's uniform deployment
// with CBR flows at eendopt's defaults (2 Kbit/s, 128 B packets, the
// Cabletron card).
func presetScenario(preset string, seed uint64, flows int, dur time.Duration) (*eend.Scenario, error) {
	fp, err := eend.ParseFieldPreset(preset)
	if err != nil {
		return nil, err
	}
	return eend.NewScenario(append([]eend.Option{
		eend.WithSeed(seed),
		eend.WithCard(eend.Cabletron),
		eend.WithRandomFlows(flows, 2*1024, 128),
		eend.WithDuration(dur),
	}, fp.Options()...)...)
}

// designOut is one certified design.
type designOut struct {
	p   *opt.Problem
	res *opt.Result
	br  *opt.BoundResult
}

// fingerprint identifies the outcome for the determinism guard: the best
// design and the exact bits of its energy and bound.
func (o *designOut) fingerprint() string {
	return o.res.BestFingerprint + "/" +
		strconv.FormatUint(math.Float64bits(o.res.BestEnergy), 16) + "/" +
		strconv.FormatUint(math.Float64bits(o.br.Value), 16)
}

// designOp builds instance i, anneals it and certifies the result with
// the Lagrangian bound, single-threaded.
func designOp(ctx context.Context, prm designParams, seed uint64, sp *spans, tr *obs.Tracer) (*designOut, error) {
	var sc *eend.Scenario
	if err := sp.do("eend.scenario", func() (err error) {
		sc, err = presetScenario(prm.preset, seed, prm.flows, prm.dur)
		return err
	}); err != nil {
		return nil, err
	}
	out := &designOut{}
	if err := sp.do("opt.problem", func() (err error) {
		out.p, err = opt.FromScenario(sc)
		return err
	}); err != nil {
		return nil, err
	}
	if err := sp.do("opt.search", func() (err error) {
		out.res, err = out.p.Search(ctx, out.p.Analytic(), opt.Options{
			Algorithm: opt.Anneal, Seed: seed, Iterations: prm.iterations, Tracer: tr,
		})
		return err
	}); err != nil {
		return nil, err
	}
	if err := sp.do("bound.lagrange", func() (err error) {
		out.br, err = out.p.Bound(opt.BoundOptions{Tier: opt.BoundLagrange, Seed: seed})
		return err
	}); err != nil {
		return nil, err
	}
	out.res.ApplyBound(out.br)
	return out, checkDesign(out.p, out.res, out.br)
}

// probeCore times the core kernels the search and bound spend their time
// in, once each on operation i's instance: the three Section 4
// heuristics, one shortest path per demand with a reused scratch, and one
// Ledger.Energy and one Enetwork on the best design.
func probeCore(o *designOut, sp *spans) error {
	p := o.p
	t := time.Now()
	for _, a := range []core.Approach{core.CommFirst, core.Joint, core.IdleFirst} {
		if _, err := p.SolveApproach(a); err != nil {
			return err
		}
	}
	sp.add("core.heuristics", time.Since(t))
	var s core.SPScratch
	var path []int
	for _, d := range p.Demands {
		t = time.Now()
		path, _ = p.Graph.ShortestPathInto(&s, d.Src, d.Dst, nil, nil, path)
		sp.add("core.sp", time.Since(t))
	}
	l := p.Graph.NewLedger(p.Demands, p.Eval)
	l.Reset(o.res.Best)
	t = time.Now()
	le := l.Energy(o.res.Best)
	sp.add("core.ledger_energy", time.Since(t))
	t = time.Now()
	ee := p.Enetwork(o.res.Best)
	sp.add("core.enetwork", time.Since(t))
	if !relClose(le, ee) {
		return fmt.Errorf("Ledger.Energy %v but Enetwork %v", le, ee)
	}
	return nil
}

// runDesign is the design-field1k workload: analytic design of field-1k
// instances, one per derived seed, each annealed and then certified by
// the Lagrangian bound. No packet simulation runs.
func runDesign(ctx context.Context, cfg config) (*report, error) {
	prm := designParamsFor(cfg.Tiny)
	rep := newReport()
	sp := newSpans(cfg.Trace)
	var tr *obs.Tracer
	if cfg.Trace {
		tr = obs.NewTracer(obs.TraceID(fmt.Sprint("design-field1k/", cfg.Seed)), obs.NewMemSink())
	}

	// Time to ready: the first instance's scenario, problem and edge index.
	setup := &setupTimer{setup: func() error {
		sc, err := presetScenario(prm.preset, derive(cfg.Seed, 0), prm.flows, prm.dur)
		if err != nil {
			return err
		}
		p, err := opt.FromScenario(sc)
		if err != nil {
			return err
		}
		p.Graph.NumEdges()
		return nil
	}}
	if err := setup.repeat(setupBefore); err != nil {
		return nil, err
	}

	var (
		costs                      []unitCost
		evals, accepted, moves     int
		energy, gapSum, boundIters float64
		guardFP                    = make([]string, prm.guard)
	)
	t0 := time.Now()
	for i := 0; !measured(t0, cfg, i, prm.quality); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start, cpu0, alloc0 := time.Now(), selfCPUSeconds(), allocMB()
		out, err := designOp(ctx, prm, derive(cfg.Seed, i), sp, tr)
		cost := unitCost{wall: time.Since(start), cpuS: selfCPUSeconds() - cpu0, allocM: allocMB() - alloc0}
		if err == nil && cfg.Trace {
			err = probeCore(out, sp)
		}
		rep.op(fmt.Sprintf("design %d", i), err)
		if err != nil {
			continue
		}
		cost.ops, cost.work = 1, float64(out.res.Iterations)
		costs = append(costs, cost)
		evals += out.res.Iterations
		accepted += out.res.Accepted
		moves += out.res.Accepted + out.res.Rejected
		if i < prm.quality {
			energy += out.res.BestEnergy
			boundIters += float64(out.br.Iterations)
			if out.res.Gap != nil {
				gapSum += *out.res.Gap
			}
		}
		if i < prm.guard {
			guardFP[i] = out.fingerprint()
		}
	}
	rep.set("energy_j", energy)
	if err := setMedians(rep, costs); err != nil {
		return nil, err
	}

	// Determinism guard: re-run the first instances in the other tracing
	// mode; the outcome must be bit-identical.
	// The traced run then repeats each one traced, right after its
	// untraced run, to measure its own overhead.
	var traced, untraced time.Duration
	for i := range prm.guard {
		var gtr *obs.Tracer
		if !cfg.Trace {
			gtr = obs.NewTracer(obs.TraceID("design-field1k/guard"), obs.NewMemSink())
		}
		t := time.Now()
		out, err := designOp(ctx, prm, derive(cfg.Seed, i), newSpans(false), gtr)
		untraced += time.Since(t)
		if err == nil {
			err = checkSame("design", guardFP[i], out.fingerprint())
		}
		rep.op(fmt.Sprintf("determinism guard %d", i), err)
		if cfg.Trace {
			t = time.Now()
			_, err := designOp(ctx, prm, derive(cfg.Seed, i), newSpans(true), tr)
			traced += time.Since(t)
			rep.op(fmt.Sprintf("traced repeat %d", i), err)
		}
	}

	q := float64(prm.quality)
	rep.set("eend.scenario_ms", ms(sp.of("eend.scenario").median()))
	rep.set("opt.problem_ms", ms(sp.of("opt.problem").median()))
	rep.set("core.heuristics_ms", ms(sp.of("core.heuristics").median()))
	search := sp.of("opt.search")
	rep.set("opt.search_ms", ms(search.median()))
	rep.set("opt.evals_per_s", ratio(float64(evals), search.sum().Seconds()))
	rep.set("opt.accept_ratio", ratio(float64(accepted), float64(moves)))
	rep.set("bound.lagrange_ms", ms(sp.of("bound.lagrange").median()))
	rep.set("bound.iterations", boundIters/q)
	rep.set("bound.gap_mean", gapSum/q)
	rep.set("core.sp_us", us(sp.of("core.sp").median()))
	rep.set("core.ledger_energy_us", us(sp.of("core.ledger_energy").median()))
	rep.set("core.enetwork_us", us(sp.of("core.enetwork").median()))
	if cfg.Trace {
		rep.set("trace.overhead_pct", overheadPct(traced, untraced))
	}
	if err := setup.repeat(setupReps - setupBefore); err != nil {
		return nil, err
	}
	rep.set("setup_s", setup.s.median().Seconds())
	return rep, nil
}
