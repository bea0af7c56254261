package core

import "fmt"

// Ledger is the evaluator of Enetwork (Eq. 5): Graph.Enetwork is a
// one-shot Ledger, and the search keeps one per engine. It tracks one
// evolving design as per-node route reference counts, updated in
// O(|route|) as routes are added and removed. The counts are integers, so
// applying a route and removing it restores the ledger bit-for-bit —
// there is no float drift to accumulate across millions of apply/undo
// cycles.
//
// Energy does NOT difference floats: it re-sums Eq. 5 in one fixed order
// (idle terms ascending by node id, then traffic terms in demand order,
// hop by hop), so every evaluation of a given design yields the same
// float64 in O(V + Σ|routes|) with zero allocations.
//
// A Ledger captures the graph's edge index at construction; mutating the
// graph (AddEdge) afterwards invalidates it. A Ledger must not be shared
// between concurrent searches.
type Ledger struct {
	g   *Graph
	ix  *edgeIndex
	cfg EvalConfig

	pkts     []float64 // per demand: cfg.Packets
	endpoint []bool    // per node: some demand's source or destination
	refcount []int32   // per node: routes currently crossing it
}

// NewLedger builds an empty ledger for designs over these demands. Install
// a design with Reset, then keep it in sync route by route with Add and
// Remove.
func (g *Graph) NewLedger(demands []Demand, cfg EvalConfig) *Ledger {
	l := &Ledger{
		g:        g,
		ix:       g.index(),
		cfg:      cfg,
		pkts:     make([]float64, len(demands)),
		endpoint: make([]bool, g.n),
		refcount: make([]int32, g.n),
	}
	for i, dm := range demands {
		g.check(dm.Src)
		g.check(dm.Dst)
		l.pkts[i] = cfg.Packets(dm)
		l.endpoint[dm.Src] = true
		l.endpoint[dm.Dst] = true
	}
	return l
}

// Reset clears the ledger and installs design d.
func (l *Ledger) Reset(d *Design) {
	clear(l.refcount)
	for _, r := range d.Routes {
		l.Add(r)
	}
}

// Add accounts a route's nodes into the ledger.
func (l *Ledger) Add(route []int) {
	for _, v := range route {
		l.refcount[v]++
	}
}

// Remove un-accounts a route previously Added.
func (l *Ledger) Remove(route []int) {
	for _, v := range route {
		l.refcount[v]--
	}
}

// RefCount returns how many installed routes cross node v.
func (l *Ledger) RefCount(v int) int { return int(l.refcount[v]) }

// Active reports whether node v lies on any installed route.
func (l *Ledger) Active(v int) bool { return l.refcount[v] > 0 }

// Endpoint reports whether node v is some demand's source or destination.
func (l *Ledger) Endpoint(v int) bool { return l.endpoint[v] }

// Pkts returns demand i's packet factor of Eq. 5 (EvalConfig.Packets).
func (l *Ledger) Pkts(i int) float64 { return l.pkts[i] }

// Energy evaluates Eq. 5 for d, which must be the design currently
// installed in the ledger: one accumulator, idle terms tidle*c(v)
// ascending by node id over active non-endpoints, then traffic terms
// pkts*tdata*w(e) in demand order, hop by hop (nil routes contribute
// nothing). It panics if a route uses a missing edge.
func (l *Ledger) Energy(d *Design) float64 {
	var total float64
	for v := 0; v < l.g.n; v++ {
		if l.refcount[v] > 0 && !l.endpoint[v] {
			total += l.cfg.TIdle * l.g.nodeWeight[v]
		}
	}
	for i, r := range d.Routes {
		if r == nil {
			continue
		}
		pkts := l.pkts[i]
		for j := 0; j+1 < len(r); j++ {
			e, ok := l.ix.find(r[j], r[j+1])
			if !ok {
				panic(fmt.Sprintf("core: route %d uses missing edge (%d,%d)", i, r[j], r[j+1]))
			}
			total += pkts * l.cfg.TData * e.w
		}
	}
	return total
}
