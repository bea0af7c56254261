// Command eendbench is the repository's end-to-end benchmark. One run
// drives one named workload through the public entry points of eend, opt,
// opt/bound, sweep and the eendd worker, checks every output it produces,
// and prints its metrics as the last line of standard output:
//
//	eendbench -workload design-field1k -seed 7 -seconds 30 -trace 0
//
// With -trace 0 the line carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a separate traced run. run.sh builds
// the benchmark and the eendd worker from source and then runs it;
// README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
	"time"

	"eend"
)

// config is one benchmark run's inputs.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64 // measured-window length
	Trace    bool
	Eendd    string // eendd binary the simopt-fleet workload starts
	Tiny     bool   // smoke-test sizes instead of the benchmark's own
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(context.Context, config) (*report, error){
	"design-field1k": runDesign,
	"sweep-cold":     runSweep,
	"simopt-fleet":   runSimopt,
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"design-field1k", "sweep-cold", "simopt-fleet"}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "eendbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("eendbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.Workload, "workload", "", "workload: design-field1k|sweep-cold|simopt-fleet")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.Seconds, "seconds", 30, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
	fs.StringVar(&cfg.Eendd, "eendd", ".bench_build/eendd", "eendd binary (simopt-fleet)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	cfg.Trace = trace == 1
	if cfg.Seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	steal0 := stealSeconds()
	rep, err := run(ctx, cfg)
	if err != nil {
		return err
	}
	rep.stealS = math.Round((stealSeconds()-steal0)*100) / 100
	for _, f := range rep.failures {
		fmt.Fprintln(stderr, "eendbench: failed:", f)
	}
	return printResult(stdout, cfg, rep)
}

// run executes one workload.
func run(ctx context.Context, cfg config) (*report, error) {
	fn, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.Workload, workloadNames)
	}
	return fn(ctx, cfg)
}

// printResult writes the machine description, then the result line.
func printResult(w io.Writer, cfg config, rep *report) error {
	ms, err := rep.metrics(cfg.Trace)
	if err != nil {
		return err
	}
	meta := map[string]any{
		"workload": cfg.Workload, "seconds": cfg.Seconds,
		"trace": cfg.Trace, "machine": describeMachine(), "steal_s": rep.stealS,
	}
	if rep.inputs != "" {
		meta["inputs"] = rep.inputs
	} else {
		meta["seed"] = cfg.Seed
	}
	metaLine, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", metaLine, line)
	return err
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. setupBefore of them run before the measured window and the rest
// after it, so one burst of load on the machine cannot move the median.
const (
	setupReps   = 9
	setupBefore = 5
)

// setupTimer times repetitions of a workload's set-up.
type setupTimer struct {
	setup func() error
	s     samples
}

func (t *setupTimer) repeat(n int) error {
	for range n {
		start := time.Now()
		if err := t.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		t.s = append(t.s, time.Since(start))
	}
	return nil
}

// derive is operation i's seed: the workload seed itself for i = 0, then
// splitmix64 derivations of it.
func derive(seed uint64, i int) uint64 { return eend.ReplicateSeed(seed, i) }

// allocMB is the process's cumulative heap allocation in MB.
func allocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / (1 << 20)
}

// relClose reports a ≈ b to a relative 1e-9: two correct evaluations of
// one objective may round differently but never by more.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*max(math.Abs(a), math.Abs(b))
}

// measured reports whether a run has measured for long enough: the
// window has elapsed and the fixed quality set is complete.
func measured(t0 time.Time, cfg config, done, quality int) bool {
	return done >= quality && time.Since(t0).Seconds() >= cfg.Seconds
}

// unitCost is what one unit of a window's work cost: a design-field1k
// design, a sweep-cold round or one simopt-fleet instance's searches.
type unitCost struct {
	wall   time.Duration
	ops    int     // operations that completed and passed their checks
	work   float64 // simulated events or objective evaluations
	cpuS   float64 // CPU time of every process the workload runs
	allocM float64 // MB allocated in this process
}

// setMedians sets the per-operation metrics as medians over the window's
// units, then the peak-RSS metrics. What a unit costs follows its inputs,
// which are heavy-tailed, and the machine's load while it ran; the median
// of a window's units follows neither one heavy unit nor one burst of load.
func setMedians(rep *report, costs []unitCost) error {
	costs = slices.DeleteFunc(costs, func(c unitCost) bool { return c.ops == 0 })
	if len(costs) == 0 {
		return fmt.Errorf("no operation completed")
	}
	perOp := func(f func(unitCost) float64) float64 {
		v := make([]float64, len(costs))
		for i, c := range costs {
			v[i] = f(c)
		}
		slices.Sort(v)
		n := len(v)
		if n%2 == 1 {
			return v[n/2]
		}
		return (v[n/2-1] + v[n/2]) / 2
	}
	rep.set("ops_per_s", perOp(func(c unitCost) float64 { return float64(c.ops) / c.wall.Seconds() }))
	rep.set("work_per_s", perOp(func(c unitCost) float64 { return c.work / c.wall.Seconds() }))
	rep.set("cpu_s_per_op", perOp(func(c unitCost) float64 { return c.cpuS / float64(c.ops) }))
	rep.set("alloc_mb_per_op", perOp(func(c unitCost) float64 { return c.allocM / float64(c.ops) }))
	return setPeakRSS(rep)
}

// setPeakRSS sets the peak-RSS metrics. A workload with a worker process
// sets eendd.peak_rss_mb first.
func setPeakRSS(rep *report) error {
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	// Peak RSS of each process the workload runs: this one, plus the
	// eendd worker where there is one.
	rep.set("client.peak_rss_mb", rss)
	rep.set("peak_rss_mb", rss+rep.values["eendd.peak_rss_mb"])
	return nil
}

// overheadPct compares the traced run's time for the guard operations
// with the same operations re-run untraced.
func overheadPct(traced, untraced time.Duration) float64 {
	return 100 * ratio(traced.Seconds()-untraced.Seconds(), untraced.Seconds())
}
