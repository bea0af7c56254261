package main

import (
	"fmt"
	"math"

	"eend"
	"eend/opt"
)

// The output checks. Each rests on a property every correct program has,
// never on a pinned fingerprint, so a deliberate golden re-pin does not
// read as failures. An operation whose check fails counts as failed.

// checkDesign holds for a certified design: every route is an edge path
// between its demand's endpoints, and
// bound ≤ Enetwork(best) = BestEnergy ≤ the best Section 4 heuristic.
func checkDesign(p *opt.Problem, res *opt.Result, br *opt.BoundResult) error {
	best := res.Best
	if best == nil || len(best.Routes) != len(p.Demands) {
		return fmt.Errorf("design does not route all %d demands", len(p.Demands))
	}
	for i, r := range best.Routes {
		d := p.Demands[i]
		if len(r) == 0 || r[0] != d.Src || r[len(r)-1] != d.Dst {
			return fmt.Errorf("route %d does not join %d to %d", i, d.Src, d.Dst)
		}
		for j := 1; j < len(r); j++ {
			if _, ok := p.Graph.EdgeWeight(r[j-1], r[j]); !ok {
				return fmt.Errorf("route %d hop %d-%d is not an edge", i, r[j-1], r[j])
			}
		}
	}
	e := p.Enetwork(best)
	if !relClose(e, res.BestEnergy) {
		return fmt.Errorf("BestEnergy %v but Enetwork(best) %v", res.BestEnergy, e)
	}
	if br == nil || br.Value > e*(1+1e-9) {
		return fmt.Errorf("lower bound %v exceeds the design's energy %v", boundValue(br), e)
	}
	if len(res.Heuristics) == 0 {
		return fmt.Errorf("no Section 4 baseline recorded")
	}
	h := math.Inf(1)
	for _, v := range res.Heuristics {
		h = min(h, v)
	}
	if res.BestEnergy > h*(1+1e-9) {
		return fmt.Errorf("search result %v is worse than the best heuristic %v", res.BestEnergy, h)
	}
	return nil
}

func boundValue(br *opt.BoundResult) float64 {
	if br == nil {
		return math.NaN()
	}
	return br.Value
}

// checkPoint holds for a simulated sweep point: it ran, 0 ≤ delivered ≤
// sent, the per-node energy breakdowns sum to the network total, and the
// simulator did some work.
func checkPoint(res *eend.Results, err error) error {
	if err != nil {
		return err
	}
	if res == nil {
		return fmt.Errorf("point has no results")
	}
	if res.Delivered > res.Sent {
		return fmt.Errorf("delivered %d of %d sent", res.Delivered, res.Sent)
	}
	if res.Events == 0 {
		return fmt.Errorf("simulation processed no events")
	}
	if len(res.PerNode) == 0 {
		return fmt.Errorf("no per-node energy breakdown")
	}
	var sum float64
	for _, n := range res.PerNode {
		sum += n.Energy.Total()
	}
	if tot := res.Energy.Total(); !relClose(sum, tot) || !(tot > 0) {
		return fmt.Errorf("per-node energies sum to %v, network total %v", sum, tot)
	}
	return nil
}

// checkSimStats holds for one simulator-in-the-loop search: every
// evaluation was answered either from a cache or by one simulation.
func checkSimStats(s opt.SimStats) error {
	if s.Evals != s.CacheHits+s.SimRuns {
		return fmt.Errorf("evals %d != cache hits %d + sim runs %d", s.Evals, s.CacheHits, s.SimRuns)
	}
	return nil
}

// checkWorkerRuns holds when the worker simulated exactly what the
// searches counted as simulator runs: no duplicate simulations.
func checkWorkerRuns(workerEvals float64, simRuns int) error {
	if workerEvals != float64(simRuns) {
		return fmt.Errorf("worker ran %v simulations for %d counted sim runs", workerEvals, simRuns)
	}
	return nil
}

// checkSame is the determinism guard: the traced and the untraced run of
// one input must produce the same fingerprint.
func checkSame(what, traced, untraced string) error {
	if traced != untraced {
		return fmt.Errorf("%s differs between traced and untraced runs: %s vs %s", what, traced, untraced)
	}
	return nil
}
