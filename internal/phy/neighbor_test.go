package phy

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"eend/internal/geom"
	"eend/internal/radio"
	"eend/internal/sim"
)

// TestNeighborTableMatchesBruteForce checks every node's neighbour table
// against a brute-force scan of all attached listeners on random fields
// seeded with coincident nodes and pairs exactly at maximum range: the
// rows must be the listeners within range in attach order, and each
// stored distance must be bit-identical to Point.Dist from the owner.
func TestNeighborTableMatchesBruteForce(t *testing.T) {
	card := radio.Cabletron
	for seed := uint64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x7ab1e))
		m := NewMedium(sim.New(seed), Config{RangeAt: card.RangeAt})
		n := 2 + rng.IntN(60)
		side := 50 + rng.Float64()*1500
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
			switch {
			case i > 0 && rng.IntN(8) == 0:
				pts[i] = pts[i-1] // coincident
			case i > 0 && rng.IntN(8) == 0:
				pts[i] = geom.Point{X: pts[i-1].X, Y: pts[i-1].Y + card.Range} // exactly at range
			}
			m.Attach(&stubNode{id: i, pos: pts[i]})
		}
		for i := range pts {
			var want []neighbor
			for j := range pts {
				if d := pts[i].Dist(pts[j]); j != i && d <= card.Range {
					want = append(want, neighbor{idx: int32(j), dist: d})
				}
			}
			got := m.neighbors(int32(i))
			if len(got) != len(want) {
				t.Fatalf("seed %d node %d: %d rows, want %d", seed, i, len(got), len(want))
			}
			for k := range got {
				if got[k].idx != want[k].idx || math.Float64bits(got[k].dist) != math.Float64bits(want[k].dist) {
					t.Fatalf("seed %d node %d row %d: %+v, want %+v", seed, i, k, got[k], want[k])
				}
			}
			if cap(got) != len(got) {
				t.Fatalf("seed %d node %d: table cap %d, want exact size %d", seed, i, cap(got), len(got))
			}
		}
	}
}

// TestNeighborTableAtExactRange pins the boundary of both the table and
// delivery: a listener exactly RangeAt(+Inf) away is in the table and
// receives a frame sent at a power RangeAt caps to the maximum range; one
// a hair further is in neither.
func TestNeighborTableAtExactRange(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	r := radio.Cabletron.Range
	src := &stubNode{id: 0}
	edge := &stubNode{id: 1, pos: geom.Point{X: r}}
	out := &stubNode{id: 2, pos: geom.Point{Y: math.Nextafter(r, math.Inf(1))}}
	twin := &stubNode{id: 3} // coincident with the source
	for _, nd := range []*stubNode{src, edge, out, twin} {
		m.Attach(nd)
	}
	if got := m.Neighbors(0, r); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Neighbors(0) = %v, want [1 3]", got)
	}
	m.Transmit(&Frame{Src: 0, Dst: Broadcast, Bytes: 100, Power: 2 * radio.Cabletron.MaxTxPower()})
	s.Run(time.Second)
	if len(edge.ended) != 1 || len(twin.ended) != 1 || len(out.began) != 0 {
		t.Fatalf("deliveries: edge=%d twin=%d out=%d, want 1 1 0", len(edge.ended), len(twin.ended), len(out.began))
	}
}

// TestAttachResetsNeighborTables: a node whose table was built by an
// earlier frame must reach a listener attached after it on its very next
// frame, with no other query in between to rebuild the index.
func TestAttachResetsNeighborTables(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	pw := radio.Cabletron.MaxTxPower()
	m.Attach(&stubNode{id: 0})
	m.Attach(&stubNode{id: 1, pos: geom.Point{X: 100}})
	m.Transmit(&Frame{Src: 0, Dst: Broadcast, Bytes: 100, Power: pw})
	s.Run(time.Second)

	late := &stubNode{id: 2, pos: geom.Point{Y: 100}}
	m.Attach(late)
	m.Transmit(&Frame{Src: 0, Dst: Broadcast, Bytes: 100, Power: pw})
	s.Run(2 * time.Second)
	if len(late.ended) != 1 || !late.endedOK[0] {
		t.Fatalf("late node: ended=%d ok=%v, want one clean reception", len(late.ended), late.endedOK)
	}
	if got := m.Neighbors(0, radio.Cabletron.Range); len(got) != 2 || got[1] != 2 {
		t.Fatalf("Neighbors(0) after attach = %v, want [1 2]", got)
	}
}

// TestNeighborsBeyondMaxRange: a query radius past RangeAt(+Inf) reaches
// beyond the tables and must still find every node within it.
func TestNeighborsBeyondMaxRange(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(s)
	r := radio.Cabletron.Range
	for i := 0; i < 5; i++ {
		m.Attach(&stubNode{id: i, pos: geom.Point{X: float64(i) * 0.75 * r}})
	}
	if got := m.Neighbors(2, 2*r); len(got) != 4 {
		t.Fatalf("Neighbors(2, 2r) = %v, want [0 1 3 4]", got)
	}
	if got := m.Neighbors(2, r); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Neighbors(2, r) = %v, want [1 3]", got)
	}
}

// TestTransmitBeyondMaxRangePanics: the tables hold only the listeners
// within RangeAt(+Inf), so a RangeAt that exceeds it at some finite power
// would silently lose receivers; Transmit refuses it in both modes.
func TestTransmitBeyondMaxRangePanics(t *testing.T) {
	rangeAt := func(p float64) float64 {
		if math.IsInf(p, 1) {
			return 100
		}
		return 200 * p
	}
	for _, linear := range []bool{false, true} {
		m := NewMedium(sim.New(1), Config{RangeAt: rangeAt, Linear: linear})
		m.Attach(&stubNode{id: 0})
		m.Attach(&stubNode{id: 1, pos: geom.Point{X: 150}})
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "exceeds the maximum range") {
					t.Fatalf("linear=%v: panic = %q, want a maximum-range panic", linear, msg)
				}
			}()
			m.Transmit(&Frame{Src: 0, Dst: 1, Bytes: 10, Power: 1})
		}()
	}
}
