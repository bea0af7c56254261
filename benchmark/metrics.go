package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two catalogues
// below are the benchmark's contract with BENCHMARK.json (a test holds
// them equal): every run prints every end-to-end metric, and every traced
// run prints every per-layer metric.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Each workload gives each one a meaning of its own; see
// README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"work_per_s", "1/s"},
	{"cpu_s_per_op", "s"},
	{"energy_j", "J"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload that bypasses a layer
// reports 0 for it, which is itself the "no work here" evidence.
var perLayer = []metricDef{
	// design-field1k
	{"eend.scenario_ms", "ms"},
	{"opt.problem_ms", "ms"},
	{"core.heuristics_ms", "ms"},
	{"opt.search_ms", "ms"},
	{"opt.evals_per_s", "1/s"},
	{"opt.accept_ratio", "ratio"},
	{"bound.lagrange_ms", "ms"},
	{"bound.iterations", "count"},
	{"bound.gap_mean", "ratio"},
	{"core.sp_us", "us"},
	{"core.ledger_energy_us", "us"},
	{"core.enetwork_us", "us"},
	// sweep-cold
	{"sweep.prepare_ms", "ms"},
	{"eend.fingerprint_us", "us"},
	{"network.run_ms_p50", "ms"},
	{"network.run_ms_ptail", "ms"},
	{"network.run_ms_ptail_q", "%"},
	{"network.run_samples", "count"},
	{"network.ns_per_event", "ns"},
	{"sim.events", "count"},
	{"mac.unicast", "count"},
	{"mac.collisions", "count"},
	{"mac.retries", "count"},
	{"routing.forwarded", "count"},
	{"routing.control", "count"},
	{"cache.put_us", "us"},
	{"cache.miss_ratio", "ratio"},
	{"exec.busy_s", "s"},
	{"exec.utilization", "ratio"},
	// simopt-fleet
	{"opt.eval_hit_us_p50", "us"},
	{"opt.eval_hit_us_ptail", "us"},
	{"opt.eval_miss_ms_p50", "ms"},
	{"opt.eval_miss_ms_ptail", "ms"},
	{"opt.eval_ptail_q", "%"},
	{"opt.hit_ratio", "ratio"},
	{"opt.sim_runs", "count"},
	{"cache.get_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"dist.shards", "count"},
	{"dist.bytes", "bytes"},
	{"eendd.evaluations", "count"},
	{"eendd.cpu_s", "s"},
	{"client.cpu_s", "s"},
	// every workload
	{"client.peak_rss_mb", "MB"},
	{"eendd.peak_rss_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run hands back: operation counts, the reason
// for each failed operation, and the values it measured by metric name.
type report struct {
	attempted int
	failed    int
	failures  []string
	values    map[string]float64
	// stealS is the CPU time the hypervisor took from the machine during
	// the run: a run that lost much of it measured a slower machine.
	stealS float64
	// inputs names a workload's inputs when they do not come from the
	// seed ("" when they do).
	inputs string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// op records one operation's outcome: err nil means it completed and
// passed its output checks.
func (r *report) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// metrics renders the catalogue the run's mode prints. A missing
// end-to-end value is a benchmark bug and fails the run; a missing
// per-layer value is a layer this workload does not reach, reported as 0.
func (r *report) metrics(trace bool) (map[string]metric, error) {
	defs, strict := endToEnd, true
	if trace {
		defs, strict = perLayer, false
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && strict {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// samples collects durations of one kind of call.
type samples []time.Duration

// quantile returns the q-quantile (nearest rank) or 0 when empty.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := slices.Clone(s)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func (s samples) median() time.Duration { return s.quantile(0.5) }

func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// tailQ is the highest quantile with at least ten samples beyond it; below
// twenty samples no tail is resolvable and the median stands in.
func tailQ(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
