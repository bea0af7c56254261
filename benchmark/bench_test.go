package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"eend"
	"eend/opt"
)

// eenddBin is the worker binary the simopt-fleet smoke runs start, built
// once by TestMain.
var eenddBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "eendbench-test")
	if err != nil {
		panic(err)
	}
	eenddBin = filepath.Join(dir, "eendd")
	build := exec.Command("go", "build", "-o", eenddBin, "eend/cmd/eendd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("build eendd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// manifest is the part of BENCHMARK.json the benchmark must agree with.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// manifestUnits maps each metric of one catalogue to its unit.
func manifestUnits(m manifest, trace bool) map[string]string {
	out := map[string]string{}
	if trace {
		for _, d := range m.PerLayer {
			out[d.Name] = d.Unit
		}
		return out
	}
	for _, d := range m.EndToEnd {
		out[d.Name] = d.Unit
	}
	return out
}

func TestCataloguesMatchManifest(t *testing.T) {
	m := readManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads: manifest %v, benchmark %v", names, workloadNames)
	}
	for _, trace := range []bool{false, true} {
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		got := map[string]string{}
		for _, d := range defs {
			got[d.Name] = d.Unit
		}
		if want := manifestUnits(m, trace); !mapsEqual(got, want) {
			t.Errorf("trace=%v: benchmark catalogue %v, manifest %v", trace, got, want)
		}
	}
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that the run passes its own output checks and prints exactly the
// metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			name := w + "/untraced"
			if trace {
				name = w + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				cfg := config{Workload: w, Seed: 3, Seconds: 0.01, Trace: trace, Eendd: eenddBin, Tiny: true}
				rep, err := run(ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.failures)
				}
				var out bytes.Buffer
				if err := printResult(&out, cfg, rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var meta map[string]any
				if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
					t.Fatal(err)
				}
				// simopt-fleet's inputs do not come from the seed, so its
				// description must not claim one.
				_, hasSeed := meta["seed"]
				_, hasInputs := meta["inputs"]
				if wantBank := w == "simopt-fleet"; hasSeed == wantBank || hasInputs != wantBank {
					t.Errorf("description %s: seed %v, inputs %v", lines[0], hasSeed, hasInputs)
				}
				var res struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Error("result not correct")
				}
				want := manifestUnits(m, trace)
				got := map[string]string{}
				for k, v := range res.Metrics {
					got[k] = v.Unit
					if !trace && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", k, v.Value)
					}
				}
				if !mapsEqual(got, want) {
					t.Errorf("printed %v, manifest %v", got, want)
				}
			})
		}
	}
}

// counted reports whether a check's outcome is counted as a failed
// operation.
func counted(err error) bool {
	rep := newReport()
	rep.op("tampered", err)
	return rep.attempted == 1 && rep.failed == 1
}

func designFixture(t *testing.T) (*opt.Problem, *opt.Result, *opt.BoundResult) {
	t.Helper()
	prm := designParamsFor(true)
	out, err := designOp(context.Background(), prm, 5, newSpans(false), nil)
	if err != nil {
		t.Fatal(err)
	}
	return out.p, out.res, out.br
}

func TestCheckDesignCountsTamperedResults(t *testing.T) {
	p, res, br := designFixture(t)
	if err := checkDesign(p, res, br); err != nil {
		t.Fatalf("untampered design fails: %v", err)
	}
	tamper := map[string]func(*opt.Problem, *opt.Result, *opt.BoundResult){
		"corrupted route": func(p *opt.Problem, r *opt.Result, _ *opt.BoundResult) {
			// Route demand 0 through a node out of its source's range.
			d := p.Demands[0]
			for v := range p.Graph.Len() {
				if _, ok := p.Graph.EdgeWeight(d.Src, v); !ok && v != d.Src {
					r.Best.Routes[0] = []int{d.Src, v, d.Dst}
					return
				}
			}
		},
		"wrong endpoint": func(p *opt.Problem, r *opt.Result, _ *opt.BoundResult) {
			route := r.Best.Routes[0]
			route[len(route)-1] = p.Demands[0].Src
		},
		"missing route":    func(_ *opt.Problem, r *opt.Result, _ *opt.BoundResult) { r.Best.Routes = r.Best.Routes[1:] },
		"energy mismatch":  func(_ *opt.Problem, r *opt.Result, _ *opt.BoundResult) { r.BestEnergy *= 1.001 },
		"bound above best": func(_ *opt.Problem, r *opt.Result, b *opt.BoundResult) { b.Value = r.BestEnergy * 1.01 },
		"worse than heuristic": func(_ *opt.Problem, r *opt.Result, _ *opt.BoundResult) {
			r.Heuristics = map[string]float64{"comm-first": r.BestEnergy / 2}
		},
	}
	for name, f := range tamper {
		t.Run(name, func(t *testing.T) {
			p, res, br := designFixture(t)
			f(p, res, br)
			if err := checkDesign(p, res, br); !counted(err) {
				t.Errorf("tampered design counted as passed")
			}
		})
	}
}

func TestCheckPointCountsTamperedResults(t *testing.T) {
	sc, err := presetScenario("field-100", 2, 2, 40*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *eend.Results {
		res, err := sc.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if err := checkPoint(fresh(), nil); err != nil {
		t.Fatalf("untampered point fails: %v", err)
	}
	tamper := map[string]func(*eend.Results) error{
		"point error":          func(*eend.Results) error { return errors.New("simulation failed") },
		"delivered above sent": func(r *eend.Results) error { r.Delivered = r.Sent + 1; return nil },
		"no events":            func(r *eend.Results) error { r.Events = 0; return nil },
		"breakdown mismatch":   func(r *eend.Results) error { r.PerNode[0].Energy.Idle += 1; return nil },
	}
	for name, f := range tamper {
		t.Run(name, func(t *testing.T) {
			r := fresh()
			err := f(r)
			if !counted(checkPoint(r, err)) {
				t.Errorf("tampered point counted as passed")
			}
		})
	}
}

func TestFleetChecksCountMismatchedCounts(t *testing.T) {
	if err := checkSimStats(opt.SimStats{Evals: 10, CacheHits: 7, SimRuns: 3}); err != nil {
		t.Fatalf("consistent stats fail: %v", err)
	}
	if !counted(checkSimStats(opt.SimStats{Evals: 10, CacheHits: 7, SimRuns: 4})) {
		t.Error("evals != hits + runs counted as passed")
	}
	if err := checkWorkerRuns(5, 5); err != nil {
		t.Fatalf("matching worker count fails: %v", err)
	}
	if !counted(checkWorkerRuns(6, 5)) {
		t.Error("duplicate worker simulation counted as passed")
	}
}

func TestDeterminismGuardCountsMismatch(t *testing.T) {
	if err := checkSame("design", "a", "a"); err != nil {
		t.Fatal(err)
	}
	if !counted(checkSame("design", "a", "b")) {
		t.Error("fingerprint mismatch counted as passed")
	}
}

func TestTailQ(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {19, 0.5}, {20, 0.5}, {50, 0.8}, {1000, 0.99}} {
		if got := tailQ(c.n); got != c.want {
			t.Errorf("tailQ(%d) = %v, want %v", c.n, got, c.want)
		}
		// At least ten samples lie beyond the tail quantile.
		if c.n >= 20 {
			s := make(samples, c.n)
			for i := range s {
				s[i] = time.Duration(i)
			}
			v := s.quantile(tailQ(c.n))
			if beyond := c.n - 1 - int(v); beyond < 10 {
				t.Errorf("n=%d: %d samples beyond the tail", c.n, beyond)
			}
		}
	}
}
