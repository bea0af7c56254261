package bound_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"eend"
	"eend/opt"
	"eend/opt/bound"
)

// field100 is a field-100 preset instance with eight CBR flows — the
// design-side shape at a size where each Lagrangian round has real
// per-demand work to share out. Its ascent runs the full 150 iterations.
func field100(t *testing.T) *opt.Problem {
	t.Helper()
	fp, err := eend.ParseFieldPreset("field-100")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := eend.NewScenario(append([]eend.Option{
		eend.WithSeed(3),
		eend.WithCard(eend.Cabletron),
		eend.WithRandomFlows(8, 2*1024, 128),
		eend.WithDuration(300 * time.Second),
	}, fp.Options()...)...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := opt.FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func withGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestLagrangianIdenticalAcrossGOMAXPROCSField100 is the worker-count
// determinism check at preset scale: eight demands spread over the caller
// and three helpers must reproduce the single-worker trace bit for bit.
func TestLagrangianIdenticalAcrossGOMAXPROCSField100(t *testing.T) {
	p := field100(t)
	o := bound.Options{Tier: bound.Lagrangian, Eval: p.Eval, Seed: 3, Trace: true}
	var one, four *bound.Result
	var err1, err4 error
	withGOMAXPROCS(1, func() { one, err1 = bound.Compute(p.Graph, p.Demands, o) })
	withGOMAXPROCS(4, func() { four, err4 = bound.Compute(p.Graph, p.Demands, o) })
	if err1 != nil || err4 != nil {
		t.Fatalf("%v / %v", err1, err4)
	}
	if one.Fingerprint() != four.Fingerprint() || math.Float64bits(one.Value) != math.Float64bits(four.Value) {
		t.Fatalf("GOMAXPROCS 1 gave %v (%s), 4 gave %v (%s)", one.Value, one.Fingerprint(), four.Value, four.Fingerprint())
	}
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1) pin, so
// the fan-out's helpers take part in the measured runs.
func mallocsPerRun(runs int, f func()) uint64 {
	f()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return (ms.Mallocs - before) / uint64(runs)
}

// TestLagrangianAllocsPerComputeNotPerIteration gates the fan-out's
// allocation shape: helpers, scratch and slots are set up once per
// Compute, so 150 iterations allocate exactly what 20 do. AllocsPerRun
// pins GOMAXPROCS to 1 (the caller-only loop); with helpers running,
// which worker's scratch grows to which size varies from run to run, so
// there the gate is that the 130 extra iterations cost less than one
// allocation each.
func TestLagrangianAllocsPerComputeNotPerIteration(t *testing.T) {
	p := field100(t)
	compute := func(iters int) func() {
		return func() {
			r, err := bound.Compute(p.Graph, p.Demands, bound.Options{Tier: bound.Lagrangian, Eval: p.Eval, Seed: 3, Iterations: iters})
			if err != nil {
				t.Fatal(err)
			}
			if r.Iterations != iters {
				t.Fatalf("ascent stopped after %d of %d iterations", r.Iterations, iters)
			}
		}
	}
	a20, a150 := testing.AllocsPerRun(5, compute(20)), testing.AllocsPerRun(5, compute(150))
	if a20 != a150 {
		t.Errorf("GOMAXPROCS 1: %v allocs at 20 iterations, %v at 150", a20, a150)
	}
	withGOMAXPROCS(4, func() {
		m20, m150 := mallocsPerRun(5, compute(20)), mallocsPerRun(5, compute(150))
		if m150 >= m20+130 {
			t.Errorf("GOMAXPROCS 4: %d allocs at 20 iterations, %d at 150", m20, m150)
		}
		t.Logf("GOMAXPROCS 1: %v allocs per Compute; GOMAXPROCS 4: %d at 20 iterations, %d at 150", a20, m20, m150)
	})
}
