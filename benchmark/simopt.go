package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"eend/internal/cache"
	"eend/internal/obs"
	"eend/opt"
)

// simoptBank seeds the fixed bank of field-100 instances every run
// searches, each with search seeds 1, 2 and 3: simopt-fleet's inputs do
// not depend on the workload seed. What a simulator-in-the-loop search
// costs is set by its instance and search seed together, and it is
// heavy-tailed: one anneal needs under ten simulations, another over
// eighty. Drawn from the workload seed, either one spread searches per
// second by a fifth across seeds, wider than any change worth measuring;
// the other two workloads carry the held-out inputs.
const simoptBank = 1

// simoptParams sizes the simopt-fleet workload.
type simoptParams struct {
	flows      int
	dur        time.Duration
	iterations int // anneal evaluations per search
	searches   int // searches per problem instance, with search seeds 1, 2, …
	quality    int // searches in the fixed quality set: the first instances' searches
}

func simoptParamsFor(tiny bool) simoptParams {
	if tiny {
		return simoptParams{flows: 2, dur: 40 * time.Second, iterations: 12, searches: 2, quality: 2}
	}
	return simoptParams{flows: 8, dur: 60 * time.Second, iterations: 200, searches: 3, quality: 12}
}

// worker is one eendd process serving /v1/evaluate on loopback.
type worker struct {
	cmd  *exec.Cmd
	url  string
	pid  string
	done chan error
}

// startWorker starts eendd on a free loopback port and waits until it
// answers /healthz. It runs without a result cache, so every evaluation
// it receives is one simulation.
func startWorker(ctx context.Context, bin string) (*worker, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start eendd: %w", err)
	}
	w := &worker{cmd: cmd, url: "http://" + addr, pid: strconv.Itoa(cmd.Process.Pid), done: make(chan error, 1)}
	go func() { w.done <- cmd.Wait() }()
	c := http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(w.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return w, nil
			}
		}
		select {
		case err := <-w.done:
			return nil, fmt.Errorf("eendd exited before it was healthy: %v", err)
		case <-ctx.Done():
			w.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			w.stop()
			return nil, fmt.Errorf("eendd not healthy after 30s")
		}
	}
}

// stop shuts the worker down and waits until it has exited.
func (w *worker) stop() {
	_ = w.cmd.Process.Signal(syscall.SIGTERM) // it may have exited already
	select {
	case <-w.done:
	case <-time.After(20 * time.Second):
		_ = w.cmd.Process.Kill()
		<-w.done
	}
}

// timedObjective times each evaluation of a Simulated objective; an
// evaluation is a miss when it raised the simulator-run count.
type timedObjective struct {
	sim *opt.Simulated
	sp  *spans
}

func (o timedObjective) Name() string { return o.sim.Name() }

func (o timedObjective) Evaluate(ctx context.Context, d *opt.Design) (float64, error) {
	runs := o.sim.Stats().SimRuns
	t := time.Now()
	v, err := o.sim.Evaluate(ctx, d)
	name := "opt.eval_hit"
	if o.sim.Stats().SimRuns > runs {
		name = "opt.eval_miss"
	}
	o.sp.add(name, time.Since(t))
	return v, err
}

// simSearch is one simulator-in-the-loop anneal of problem p, its
// candidates simulated on the worker and cached in store.
func simSearch(ctx context.Context, prm simoptParams, p *opt.Problem, seed uint64, store cache.Store, url string, tr *obs.Tracer, sp *spans) (*opt.Result, opt.SimStats, error) {
	sim, err := p.Simulated(opt.SimConfig{Store: store, Remote: []string{url}})
	if err != nil {
		return nil, opt.SimStats{}, err
	}
	var obj opt.Objective = sim
	if sp.on {
		obj = timedObjective{sim: sim, sp: sp}
	}
	res, err := p.Search(ctx, obj, opt.Options{
		Algorithm: opt.Anneal, Seed: seed, Iterations: prm.iterations, Tracer: tr,
	})
	st := sim.Stats()
	if err == nil {
		err = checkSimStats(st)
	}
	return res, st, err
}

func resultFP(res *opt.Result) string {
	return res.BestFingerprint + "/" + strconv.FormatUint(math.Float64bits(res.BestEnergy), 16)
}

// simoptProblem builds instance r of the bank.
func simoptProblem(prm simoptParams, r int, sp *spans) (*opt.Problem, error) {
	var p *opt.Problem
	err := sp.do("opt.problem", func() error {
		sc, err := presetScenario("field-100", derive(simoptBank, r), prm.flows, prm.dur)
		if err != nil {
			return err
		}
		p, err = opt.FromScenario(sc)
		return err
	})
	return p, err
}

// runSimopt is the simopt-fleet workload: simulator-in-the-loop anneals
// on the bank's field-100 instances, a few searches per instance, every
// candidate simulation sent through the dist coordinator to one eendd
// worker process, and all searches of the run sharing one in-memory
// result store.
//
// Its per-operation metrics are medians over instances, each instance's
// searches measured together: what a search costs is heavy-tailed (one
// anneal needs under ten simulations, another over eighty).
func runSimopt(ctx context.Context, cfg config) (*report, error) {
	prm := simoptParamsFor(cfg.Tiny)
	rep := newReport()
	rep.inputs = fmt.Sprintf("bank-%d", simoptBank)
	sp := newSpans(cfg.Trace)
	var tr *obs.Tracer
	var store cache.Store = cache.NewMem()
	if cfg.Trace {
		tr = obs.NewTracer(obs.TraceID(fmt.Sprint("simopt-fleet/", cfg.Seed)), obs.NewMemSink())
		store = timedStore{Store: store, sp: sp}
	}

	// Time to ready: a healthy worker and the first problem instance. Each
	// repetition starts a worker of its own; the last one before the
	// window serves the run, and the others are stopped untimed.
	var workers []*worker
	defer func() {
		for _, w := range workers {
			w.stop()
		}
	}()
	setup := &setupTimer{setup: func() error {
		w, err := startWorker(ctx, cfg.Eendd)
		if err != nil {
			return err
		}
		workers = append(workers, w)
		_, err = simoptProblem(prm, 0, newSpans(false))
		return err
	}}
	if err := setup.repeat(setupBefore); err != nil {
		return nil, err
	}
	w := workers[len(workers)-1]
	for _, spare := range workers[:len(workers)-1] {
		spare.stop()
	}
	workers = workers[len(workers)-1:]

	var (
		costs                []unitCost
		simRuns              int
		qEvals, qHits, qRuns int
		energy               float64
		guardFP              string
	)
	w0, err := scrapeURL(w.url)
	if err != nil {
		return nil, err
	}
	wcpu0, err := cpuSeconds(w.pid)
	if err != nil {
		return nil, err
	}
	cpu0 := selfCPUSeconds()
	t0 := time.Now()
	for r := 0; r*prm.searches < prm.quality || time.Since(t0).Seconds() < cfg.Seconds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start, c0, a0 := time.Now(), selfCPUSeconds(), allocMB()
		wc0, err := cpuSeconds(w.pid)
		if err != nil {
			return nil, err
		}
		p, err := simoptProblem(prm, r, sp)
		if err != nil {
			return nil, err
		}
		cost, complete := unitCost{}, true
		for k := range prm.searches {
			op := r*prm.searches + k
			res, st, err := simSearch(ctx, prm, p, uint64(k+1), store, w.url, tr, sp)
			rep.op(fmt.Sprintf("search %d/%d", r, k), err)
			cost.work += float64(st.Evals)
			simRuns += st.SimRuns
			if err != nil {
				complete = false
				continue
			}
			if op < prm.quality {
				energy += res.BestEnergy
				qEvals += st.Evals
				qHits += st.CacheHits
				qRuns += st.SimRuns
			}
			if op == 0 {
				guardFP = resultFP(res)
			}
		}
		wc1, err := cpuSeconds(w.pid)
		if err != nil {
			return nil, err
		}
		cost.wall = time.Since(start)
		cost.cpuS = selfCPUSeconds() - c0 + wc1 - wc0
		cost.allocM = allocMB() - a0
		if complete {
			cost.ops = prm.searches
			costs = append(costs, cost)
		}
	}
	w1, err := scrapeURL(w.url)
	if err != nil {
		return nil, err
	}
	rep.op("worker evaluations", checkWorkerRuns(w1.delta(w0, "eend_evaluations_total"), simRuns))
	wcpu1, err1 := cpuSeconds(w.pid)
	wrss, err2 := peakRSSMB(w.pid)
	if err := errors.Join(err1, err2); err != nil {
		return nil, err
	}
	rep.set("energy_j", energy)
	rep.set("eendd.cpu_s", wcpu1-wcpu0)
	rep.set("client.cpu_s", selfCPUSeconds()-cpu0)
	rep.set("eendd.peak_rss_mb", wrss)
	if err := setMedians(rep, costs); err != nil {
		return nil, err
	}

	// Determinism guard: the first search again, on a cold store, in the
	// other tracing mode. The worker must again simulate exactly the runs
	// it counts; this one cold search is also the fixed unit the dist and
	// eendd counts cover.
	var gtr *obs.Tracer
	if !cfg.Trace {
		gtr = obs.NewTracer(obs.TraceID("simopt-fleet/guard"), obs.NewMemSink())
	}
	p, err := simoptProblem(prm, 0, newSpans(false))
	if err != nil {
		return nil, err
	}
	l1 := scrapeLocal()
	t := time.Now()
	res, st, err := simSearch(ctx, prm, p, 1, cache.NewMem(), w.url, gtr, newSpans(false))
	untraced := time.Since(t)
	if err == nil {
		err = checkSame("search", guardFP, resultFP(res))
	}
	rep.op("determinism guard", err)
	l2 := scrapeLocal()
	w2, err := scrapeURL(w.url)
	if err != nil {
		return nil, err
	}
	rep.op("guard worker evaluations", checkWorkerRuns(w2.delta(w1, "eend_evaluations_total"), st.SimRuns))
	if cfg.Trace {
		// The same search once more, traced, right after its untraced run:
		// the traced run's own overhead.
		tsp := newSpans(true)
		t := time.Now()
		_, _, err := simSearch(ctx, prm, p, 1, timedStore{Store: cache.NewMem(), sp: tsp}, w.url, tr, tsp)
		rep.op("traced repeat", err)
		rep.set("trace.overhead_pct", overheadPct(time.Since(t), untraced))
	}

	hit, miss := sp.of("opt.eval_hit"), sp.of("opt.eval_miss")
	q := tailQ(min(len(hit), len(miss)))
	rep.set("opt.eval_hit_us_p50", us(hit.median()))
	rep.set("opt.eval_hit_us_ptail", us(hit.quantile(q)))
	rep.set("opt.eval_miss_ms_p50", ms(miss.median()))
	rep.set("opt.eval_miss_ms_ptail", ms(miss.quantile(q)))
	rep.set("opt.eval_ptail_q", 100*q)
	rep.set("opt.hit_ratio", ratio(float64(qHits), float64(qEvals)))
	rep.set("opt.sim_runs", float64(qRuns))
	stats := store.Stats()
	rep.set("cache.get_us", us(sp.of("cache.get").median()))
	rep.set("cache.hit_ratio", ratio(float64(stats.Hits), float64(stats.Hits+stats.Misses)))
	rep.set("dist.shards", l2.delta(l1, `eend_dist_shards_total{outcome="ok"}`))
	rep.set("dist.bytes", l2.delta(l1, `eend_dist_bytes_total{dir="sent"}`)+l2.delta(l1, `eend_dist_bytes_total{dir="recv"}`))
	rep.set("eendd.evaluations", w2.delta(w1, "eend_evaluations_total"))
	rep.set("opt.problem_ms", ms(sp.of("opt.problem").median()))
	if err := setup.repeat(setupReps - setupBefore); err != nil {
		return nil, err
	}
	rep.set("setup_s", setup.s.median().Seconds())
	return rep, nil
}
