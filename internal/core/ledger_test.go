package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// refEnetwork is the map-and-sort Eq. 5 evaluator the Ledger replaced,
// kept verbatim as the oracle the production evaluator is pinned to.
func refEnetwork(g *Graph, demands []Demand, d *Design, cfg EvalConfig) float64 {
	if cfg.PacketsPerDemand == 0 {
		cfg.PacketsPerDemand = 1
	}
	endpoints := make(map[int]bool, 2*len(demands))
	for _, dm := range demands {
		endpoints[dm.Src] = true
		endpoints[dm.Dst] = true
	}
	active := d.Active()
	ids := make([]int, 0, len(active))
	for v := range active {
		ids = append(ids, v)
	}
	sort.Ints(ids)
	var total float64
	for _, v := range ids {
		if endpoints[v] {
			continue // c(si) = c(di) = 0
		}
		total += cfg.TIdle * g.nodeWeight[v]
	}
	for i, r := range d.Routes {
		if r == nil {
			continue
		}
		pkts := cfg.PacketsPerDemand
		if demands[i].Rate > 0 {
			pkts *= demands[i].Rate
		}
		for j := 0; j+1 < len(r); j++ {
			w, ok := g.EdgeWeight(r[j], r[j+1])
			if !ok {
				panic(fmt.Sprintf("core: route %d uses missing edge (%d,%d)", i, r[j], r[j+1]))
			}
			total += pkts * cfg.TData * w
		}
	}
	return total
}

// TestLedgerEnergyBitIdenticalToEnetwork pins Graph.Enetwork and
// Ledger.Energy bit-identical to refEnetwork on random instances —
// parallel edges, nil routes, negative, zero and fractional rates,
// PacketsPerDemand 0 — with the ledger checked again after every
// Add/Remove apply and undo.
func TestLedgerEnergyBitIdenticalToEnetwork(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 1))
	rates := []float64{-1, 0, 0.5, 1, 3}
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng, 8+rng.IntN(14))
		var demands []Demand
		for k := 0; k < 1+rng.IntN(6); k++ {
			u, v := rng.IntN(g.Len()), rng.IntN(g.Len())
			if u != v {
				demands = append(demands, Demand{Src: u, Dst: v, Rate: rates[rng.IntN(len(rates))]})
			}
		}
		if len(demands) == 0 {
			continue
		}
		cfg := EvalConfig{TIdle: rng.Float64() * 10, TData: rng.Float64() * 3}
		if trial%3 != 0 {
			cfg.PacketsPerDemand = 0.5 + float64(rng.IntN(4))
		}
		d := randomDesign(g, demands, rng)
		for i := range d.Routes {
			if rng.IntN(4) == 0 {
				d.Routes[i] = nil
			}
		}
		check := func(l *Ledger, where string) {
			t.Helper()
			want := refEnetwork(g, demands, d, cfg)
			for name, got := range map[string]float64{"Enetwork": g.Enetwork(demands, d, cfg), "Ledger.Energy": l.Energy(d)} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d %s: %s = %v (bits %x), reference %v (bits %x)",
						trial, where, name, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
		l := g.NewLedger(demands, cfg)
		l.Reset(d)
		check(l, "after Reset")
		for k := 0; k < 20; k++ {
			i := rng.IntN(len(demands))
			var alt []int
			if rng.IntN(5) > 0 {
				alt, _ = g.ShortestPath(demands[i].Src, demands[i].Dst, nil,
					func(int) float64 { return float64(rng.IntN(3)) })
			}
			old := d.Routes[i]
			l.Remove(old)
			l.Add(alt)
			d.Routes[i] = alt
			check(l, fmt.Sprintf("step %d apply", k))
			if rng.IntN(2) == 0 {
				l.Remove(alt)
				l.Add(old)
				d.Routes[i] = old
				check(l, fmt.Sprintf("step %d undo", k))
			}
		}
	}
}
