package sweep

import (
	"math"
	"strings"
	"testing"
	"time"

	"eend"
)

func TestParseGridHappyPath(t *testing.T) {
	g, err := ParseGrid("nodes=10,20 seed=1..3 stack=titan-pc/odpm topology=uniform,cluster rate=2")
	if err != nil {
		t.Fatal(err)
	}
	axes := g.Axes()
	if len(axes) != 5 {
		t.Fatalf("axes = %d, want 5", len(axes))
	}
	if axes[0].Name != "nodes" || axes[1].Name != "seed" {
		t.Fatalf("axis order not preserved: %v", axes)
	}
	if got := axes[1].Values; len(got) != 3 || got[0] != "1" || got[2] != "3" {
		t.Fatalf("span 1..3 expanded to %v", got)
	}
	if g.Size() != 2*3*1*2*1 {
		t.Fatalf("size = %d, want 12", g.Size())
	}
}

func TestParseGridErrors(t *testing.T) {
	cases := map[string]string{
		"empty spec":      "",
		"not name=values": "nodes",
		"empty axis":      "nodes=",
		"empty value":     "nodes=10,,20",
		"duplicate axis":  "nodes=10 nodes=20",
		"unknown axis":    "antennas=3",
		"bad span":        "seed=1..x",
		"reversed span":   "seed=9..3",
		"huge span":       "seed=1..99999",
		// b-a overflows an int: the width must still be caught.
		"overflowing span": "seed=-2..9223372036854775807",
		"min..max span":    "seed=-9223372036854775808..9223372036854775807",
		"overflowing size": "seed=1..2048 nodes=1..2048 field=1..2048 flows=1..2048 rate=1..2048 dur=1..2048",
	}
	for name, spec := range cases {
		if _, err := ParseGrid(spec); err == nil {
			t.Errorf("%s: ParseGrid(%q) accepted", name, spec)
		}
	}
}

// overflowGrid builds a grid with len(sizes) axes of the given lengths.
func overflowGrid(sizes ...int) *Grid {
	names := []string{"seed", "nodes", "field", "flows", "rate", "dur"}
	g := NewGrid()
	for i, n := range sizes {
		vals := make([]any, n)
		for j := range vals {
			vals[j] = j + 1
		}
		g.Axis(names[i], vals...)
	}
	return g
}

// TestGridSizeSaturates: Size reports an overflowing point count as
// math.MaxInt, not a wrapped value, and stays exact just below it and for
// an (invalid) grid with an empty axis.
func TestGridSizeSaturates(t *testing.T) {
	if n := NewGrid().Axis("nodes").Axis("seed", 1, 2).Size(); n != 0 {
		t.Errorf("Size with an empty axis = %d, want 0", n)
	}
	if n := overflowGrid(2048, 2048, 2048, 2048, 2048, 2048).Size(); n != math.MaxInt {
		t.Errorf("overflowing Size = %d, want math.MaxInt", n)
	}
	if g := overflowGrid(2048, 2048, 2048, 2048, 2048, 255); g.Validate() != nil || g.Size() != 255<<55 {
		t.Errorf("grid just below the overflow: Validate %v, Size %d", g.Validate(), g.Size())
	}
}

func TestGridBuilderErrors(t *testing.T) {
	cases := map[string]*Grid{
		"empty name":     NewGrid().Axis("", 1),
		"no values":      NewGrid().Axis("nodes"),
		"duplicate axis": NewGrid().Axis("nodes", 10).Axis("nodes", 20),
		"unknown axis":   NewGrid().Axis("antennas", 3),
		"empty grid":     NewGrid(),
		// Unchecked, six 2048-value axes wrap the point count to 0 and
		// 2^63 points wrap it negative.
		"size wraps to 0":        overflowGrid(2048, 2048, 2048, 2048, 2048, 2048),
		"size wraps to negative": overflowGrid(2048, 2048, 2048, 2048, 2048, 256),
	}
	for name, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
		if _, err := g.Points(); err == nil {
			t.Errorf("%s: Points expanded an invalid grid", name)
		}
	}
}

func TestPointsExpansionOrder(t *testing.T) {
	g := NewGrid().Axis("nodes", 10, 20).Axis("seed", 1, 2)
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	want := []map[string]string{
		{"nodes": "10", "seed": "1"},
		{"nodes": "10", "seed": "2"},
		{"nodes": "20", "seed": "1"},
		{"nodes": "20", "seed": "2"},
	}
	if len(pts) != len(want) {
		t.Fatalf("points = %d, want %d", len(pts), len(want))
	}
	for i, p := range pts {
		if p.Index != i {
			t.Fatalf("point %d has index %d", i, p.Index)
		}
		for k, v := range want[i] {
			if p.Params[k] != v {
				t.Fatalf("point %d = %v, want %v (first axis varies slowest)", i, p.Params, want[i])
			}
		}
	}
}

func TestPointScenarioTranslation(t *testing.T) {
	g := NewGrid().
		Axis("nodes", 15).
		Axis("seed", 7).
		Axis("stack", "dsr/active").
		Axis("topology", "corridor").
		Axis("workload", "bursty").
		Axis("flows", 2).
		Axis("rate", 4).
		Axis("dur", "60s").
		Axis("field", "400x200").
		Axis("card", "mica2")
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("points = %d, want 1", len(pts))
	}
	sc, err := pts[0].Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.NodeCount() != 15 || sc.Seed() != 7 {
		t.Errorf("nodes/seed = %d/%d, want 15/7", sc.NodeCount(), sc.Seed())
	}
	if sc.StackName() != "DSR-Active" {
		t.Errorf("stack = %q, want DSR-Active", sc.StackName())
	}
	if sc.Duration() != 60*time.Second {
		t.Errorf("duration = %v, want 60s", sc.Duration())
	}
	// bursty x 2 flows x default 3 bursts
	if flows := sc.Flows(); len(flows) != 6 {
		t.Errorf("flows = %d, want 6 bursty segments", len(flows))
	}
}

func TestPointScenarioBadValue(t *testing.T) {
	for _, spec := range []string{
		"nodes=ten", "seed=-1", "rate=fast", "dur=300", "field=AxB",
		"stack=titan", "stack=ospf/odpm", "stack=titan/foo",
		"topology=torus", "workload=poisson", "card=wifi7",
		"flows=0", "packet=-8", "battery=x", "bandwidth=x",
	} {
		g, err := ParseGrid(spec)
		if err != nil {
			continue // rejected at parse time is fine too
		}
		pts, err := g.Points()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pts[0].Scenario(); err == nil {
			t.Errorf("point from %q built a scenario", spec)
		}
	}
}

func TestParseStackModifiers(t *testing.T) {
	cases := map[string]string{
		"titan-pc/odpm":      "TITAN-ODPM-PC",
		"dsr/active":         "DSR-Active",
		"dsrh-rate/odpm":     "DSRH(rate)-ODPM",
		"dsdvh-pc/odpm":      "DSDVH-ODPM-PC",
		"titan-span/odpm":    "TITAN-ODPM", // span doesn't change the label
		"dsr-perfect/active": "DSR-Active", // neither does perfect-sleep
	}
	for spec, want := range cases {
		opts, err := ParseStack(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		sc, err := eend.NewScenario(eend.WithStack(opts...))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if sc.StackName() != want {
			t.Errorf("%s: stack name = %q, want %q", spec, sc.StackName(), want)
		}
	}
}

func TestAxisNamesCoverRegistry(t *testing.T) {
	names := AxisNames()
	if len(names) != len(axisRegistry) {
		t.Fatalf("AxisNames = %d entries, registry has %d", len(names), len(axisRegistry))
	}
	if !strings.Contains(strings.Join(names, " "), "topology") {
		t.Fatalf("AxisNames = %v, missing topology", names)
	}
}
