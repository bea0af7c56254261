package core

import (
	"fmt"
	"math"
)

// ExactSolve finds a minimum-Enetwork design by brute force, for small
// instances only: it enumerates every subset of candidate relay nodes
// (everything that is not a demand endpoint), and for each activation set
// routes every demand over active nodes with Dijkstra (which is optimal for
// a fixed activation set, since edge costs are then independent). The
// design problem is NP-hard (Section 3), so this is exponential in the
// number of candidate relays; it exists to validate the heuristics on
// small graphs.
//
// maxRelays caps the enumeration: graphs with more candidate relays are
// rejected.
const maxExactRelays = 16

// ExactSolve returns the optimal design and its Enetwork value.
func (g *Graph) ExactSolve(demands []Demand, cfg EvalConfig) (*Design, float64, error) {
	led := g.NewLedger(demands, cfg)
	var relays []int
	for v := 0; v < g.n; v++ {
		if !led.Endpoint(v) {
			relays = append(relays, v)
		}
	}
	if len(relays) > maxExactRelays {
		return nil, 0, fmt.Errorf("core: %d candidate relays exceed the exact-solver cap %d",
			len(relays), maxExactRelays)
	}

	allowed := make([]bool, g.n)
	for v := range allowed {
		allowed[v] = led.Endpoint(v)
	}
	// Infinite node cost on disallowed nodes keeps Dijkstra inside the
	// activation set.
	blockInactive := func(v int) float64 {
		if allowed[v] {
			return 0
		}
		return math.Inf(1)
	}
	var sp SPScratch

	bestCost := math.Inf(1)
	var best *Design
	for mask := 0; mask < 1<<len(relays); mask++ {
		for i, v := range relays {
			allowed[v] = mask&(1<<i) != 0
		}
		d, ok := g.routeWithin(&sp, demands, cfg, blockInactive)
		if !ok {
			continue
		}
		led.Reset(d)
		if cost := led.Energy(d); cost < bestCost {
			bestCost = cost
			best = d
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("core: no feasible design (graph disconnected?)")
	}
	return best, bestCost, nil
}

// routeWithin routes every demand along its cheapest path by Eq. 5 traffic
// cost over the nodes nodeCost does not block — optimal for a fixed
// activation set.
func (g *Graph) routeWithin(sp *SPScratch, demands []Demand, cfg EvalConfig, nodeCost NodeCostFunc) (*Design, bool) {
	d := &Design{Routes: make([][]int, len(demands))}
	for i, dm := range demands {
		k := cfg.Packets(dm) * cfg.TData
		path, _ := g.ShortestPathInto(sp, dm.Src, dm.Dst,
			func(_, _ int, w float64) float64 { return k * w }, nodeCost, nil)
		if len(path) == 0 {
			return nil, false
		}
		d.Routes[i] = path
	}
	return d, true
}
