package bound

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"eend/internal/core"
)

// withGOMAXPROCS runs f with GOMAXPROCS set to n, restoring the old value.
func withGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// settleGoroutines waits briefly for the goroutine count to fall back to
// want (an exiting goroutine is counted until it is fully torn down) and
// returns the last count seen.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLagrangianIdenticalAcrossGOMAXPROCS asserts the per-demand fan-out
// never leaks into the result: the Lagrangian trace fingerprint and the
// bound's bits match between one worker and several on every instance.
func TestLagrangianIdenticalAcrossGOMAXPROCS(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		ti := randInstance(seed)
		o := Options{Tier: Lagrangian, Eval: ti.eval, Seed: seed, Trace: true}
		var one, four *Result
		var err1, err4 error
		withGOMAXPROCS(1, func() { one, err1 = Compute(ti.g, ti.demands, o) })
		withGOMAXPROCS(4, func() { four, err4 = Compute(ti.g, ti.demands, o) })
		if err1 != nil || err4 != nil {
			t.Fatalf("seed %d: %v / %v", seed, err1, err4)
		}
		if one.Fingerprint() != four.Fingerprint() || math.Float64bits(one.Value) != math.Float64bits(four.Value) {
			t.Fatalf("seed %d: GOMAXPROCS 1 gave %v (%s), 4 gave %v (%s)",
				seed, one.Value, one.Fingerprint(), four.Value, four.Fingerprint())
		}
	}
}

// TestComputePanicReachesCaller builds an instance whose last demand
// crosses a negative-weight edge, so whichever worker claims it panics in
// the Dijkstra kernel. Both tiers must re-raise that panic on the
// goroutine that called Compute, and leave no helper goroutine behind.
func TestComputePanicReachesCaller(t *testing.T) {
	g := core.NewGraph(14)
	for v := 0; v+1 < 12; v++ {
		g.AddEdge(v, v+1, 1)
		g.SetNodeWeight(v, 1)
	}
	g.AddEdge(12, 13, -1)
	demands := []core.Demand{{Src: 0, Dst: 11}, {Src: 1, Dst: 10}, {Src: 2, Dst: 9}, {Src: 3, Dst: 8}, {Src: 12, Dst: 13}}
	eval := core.EvalConfig{TIdle: 1, TData: 1}
	withGOMAXPROCS(4, func() {
		before := runtime.NumGoroutine()
		for _, tier := range []Tier{Combinatorial, Lagrangian} {
			for rep := 0; rep < 20; rep++ {
				got := func() (p any) {
					defer func() { p = recover() }()
					_, _ = Compute(g, demands, Options{Tier: tier, Eval: eval})
					return nil
				}()
				if got != "core: negative cost in Dijkstra" {
					t.Fatalf("%v rep %d: recovered %v, want the kernel's negative-cost panic", tier, rep, got)
				}
			}
		}
		if after := settleGoroutines(before); after > before {
			t.Fatalf("goroutines: %d before, %d after panicking Computes", before, after)
		}
	})
}

// TestFanHelperPanicReachesCaller forces the panic onto a helper: the
// caller's own subproblems wait until a helper has claimed one and
// panicked, so run can only learn of the panic through the helper.
func TestFanHelperPanicReachesCaller(t *testing.T) {
	withGOMAXPROCS(4, func() {
		before := runtime.NumGoroutine()
		f := newFan(4)
		var helperPanicked atomic.Bool
		got := func() (p any) {
			defer func() { p = recover() }()
			defer f.stop()
			f.run(8, func(w *worker, _ int) {
				if w != &f.workers[0] {
					helperPanicked.Store(true)
					panic("helper boom")
				}
				for deadline := time.Now().Add(5 * time.Second); !helperPanicked.Load() && time.Now().Before(deadline); {
					runtime.Gosched()
				}
			})
			return nil
		}()
		if !helperPanicked.Load() {
			t.Fatal("no helper claimed a subproblem")
		}
		if got != "helper boom" {
			t.Fatalf("recovered %v, want the helper's panic", got)
		}
		if after := settleGoroutines(before); after > before {
			t.Fatalf("goroutines: %d before, %d after stop", before, after)
		}
	})
}

// TestFanSingleWorkerHasNoHelpers pins the degenerate shapes onto the
// same loop with zero helpers: one demand, or GOMAXPROCS=1.
func TestFanSingleWorkerHasNoHelpers(t *testing.T) {
	for _, c := range []struct{ procs, k int }{{4, 1}, {1, 8}} {
		withGOMAXPROCS(c.procs, func() {
			f := newFan(c.k)
			defer f.stop()
			if len(f.workers) != 1 {
				t.Fatalf("GOMAXPROCS %d, %d demands: %d workers, want 1", c.procs, c.k, len(f.workers))
			}
			seen := make([]int, c.k)
			f.run(c.k, func(_ *worker, i int) { seen[i]++ })
			for i, n := range seen {
				if n != 1 {
					t.Fatalf("subproblem %d solved %d times", i, n)
				}
			}
		})
	}
}
