// Package spf implements shortest-path routing: Dijkstra, OSPF-style ECMP
// routing in flow representation, inverse-capacity weights, and a
// Fortz–Thorup-style local-search IGP weight optimizer.
package spf

import (
	"math"

	"repro/internal/graph"
	"repro/internal/routing"
)

// Infinity marks unreachable nodes in distance vectors.
var Infinity = math.Inf(1)

// Cost returns a link cost function; nil means the link's IGP weight.
type Cost func(graph.LinkID) float64

// flatten materializes a cost closure into a per-link array and an alive
// predicate into a down-set, the kernel's flat inputs. Closures passed
// here must be pure (every closure in this repository is), so evaluating
// them once per link instead of once per edge visit changes nothing.
func flatten(g *graph.Graph, alive func(graph.LinkID) bool, cost Cost) ([]float64, *graph.LinkSet) {
	nL := g.NumLinks()
	costs := make([]float64, nL)
	for id := 0; id < nL; id++ {
		costs[id] = cost(graph.LinkID(id))
	}
	return costs, DownSet(nL, alive)
}

// DownSet materializes an alive predicate over nL links as the kernel's
// down-set: the links for which alive returns false, or nil when alive is
// nil (every link alive).
func DownSet(nL int, alive func(graph.LinkID) bool) *graph.LinkSet {
	if alive == nil {
		return nil
	}
	var down graph.LinkSet
	for id := 0; id < nL; id++ {
		if !alive(graph.LinkID(id)) {
			down.Add(graph.LinkID(id))
		}
	}
	return &down
}

// WeightCost returns the IGP-weight cost function for g.
func WeightCost(g *graph.Graph) Cost {
	return func(id graph.LinkID) float64 { return g.Link(id).Weight }
}

// DelayCost returns a propagation-delay cost function for g.
func DelayCost(g *graph.Graph) Cost {
	return func(id graph.LinkID) float64 { return g.Link(id).Delay }
}

// Dijkstra computes shortest distances from src over alive links (nil
// alive = all links). Unreachable nodes get Infinity. cost must be
// nonnegative.
func Dijkstra(g *graph.Graph, src graph.NodeID, alive func(graph.LinkID) bool, cost Cost) []float64 {
	costs, down := flatten(g, alive, cost)
	var s Scratch
	SPFFrom(g.CSR(), src, costs, down, &s)
	return s.Dist
}

// DijkstraTo computes shortest distances TO dst (over reversed links).
func DijkstraTo(g *graph.Graph, dst graph.NodeID, alive func(graph.LinkID) bool, cost Cost) []float64 {
	dist, _ := DijkstraToWithNext(g, dst, alive, cost)
	return dist
}

// DijkstraToWithNext computes shortest distances to dst and, for every
// node, the first link of a shortest path toward dst (-1 when unreachable
// or at dst itself). Following the next pointers always yields a simple
// path, which makes it the safe way to extract paths.
func DijkstraToWithNext(g *graph.Graph, dst graph.NodeID, alive func(graph.LinkID) bool, cost Cost) ([]float64, []graph.LinkID) {
	costs, down := flatten(g, alive, cost)
	var s Scratch
	SPFTo(g.CSR(), dst, costs, down, &s)
	next := make([]graph.LinkID, len(s.Next))
	for i, id := range s.Next {
		next[i] = graph.LinkID(id)
	}
	return s.Dist, next
}

// PathVia follows next pointers from DijkstraToWithNext to build the link
// list from src to the tree's destination, or nil if unreachable.
func PathVia(g *graph.Graph, src graph.NodeID, next []graph.LinkID) []graph.LinkID {
	if next[src] < 0 {
		return nil
	}
	var path []graph.LinkID
	u := src
	for next[u] >= 0 {
		id := next[u]
		path = append(path, id)
		u = g.Link(id).Dst
	}
	return path
}

// ShortestPath returns the links of one shortest path from src to dst, or
// nil if dst is unreachable.
func ShortestPath(g *graph.Graph, src, dst graph.NodeID, alive func(graph.LinkID) bool, cost Cost) []graph.LinkID {
	distTo := DijkstraTo(g, dst, alive, cost)
	if math.IsInf(distTo[src], 1) {
		return nil
	}
	const eps = 1e-9
	var links []graph.LinkID
	u := src
	for u != dst {
		found := false
		for _, id := range g.Out(u) {
			if alive != nil && !alive(id) {
				continue
			}
			v := g.Link(id).Dst
			if math.Abs(cost(id)+distTo[v]-distTo[u]) < eps*(1+distTo[u]) {
				links = append(links, id)
				u = v
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	return links
}

// ecmpFractions computes, for destination dst, the ECMP split fractions of
// one unit injected at src: equal splitting over all shortest-path
// next-hops at every node. Returns nil if dst is unreachable from src.
func ecmpFractions(g *graph.Graph, src, dst graph.NodeID, alive func(graph.LinkID) bool, cost Cost, distTo []float64) []float64 {
	if math.IsInf(distTo[src], 1) {
		return nil
	}
	const eps = 1e-9
	frac := make([]float64, g.NumLinks())
	inflow := make([]float64, g.NumNodes())
	inflow[src] = 1

	// Process nodes in decreasing distance-to-dst order: shortest-path DAG
	// edges always go from larger to smaller distTo.
	order := nodesByDistDesc(distTo)
	for _, u := range order {
		f := inflow[u]
		if f <= 0 || u == dst {
			continue
		}
		// Find ECMP next hops.
		var hops []graph.LinkID
		for _, id := range g.Out(u) {
			if alive != nil && !alive(id) {
				continue
			}
			v := g.Link(id).Dst
			if math.IsInf(distTo[v], 1) {
				continue
			}
			if math.Abs(cost(id)+distTo[v]-distTo[u]) < eps*(1+distTo[u]) {
				hops = append(hops, id)
			}
		}
		if len(hops) == 0 {
			// Should not happen when distTo[u] is finite.
			continue
		}
		share := f / float64(len(hops))
		for _, id := range hops {
			frac[id] += share
			inflow[g.Link(id).Dst] += share
		}
	}
	return frac
}

func nodesByDistDesc(dist []float64) []graph.NodeID {
	order := make([]graph.NodeID, 0, len(dist))
	for n := range dist {
		if !math.IsInf(dist[n], 1) {
			order = append(order, graph.NodeID(n))
		}
	}
	// Insertion sort is fine at these sizes; keeps determinism without an
	// extra closure allocation per call... but use sort for clarity.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && dist[order[j-1]] < dist[order[j]]; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	return order
}

// ECMPFlow computes OSPF ECMP routing in flow representation for the given
// commodities over alive links. Commodities whose destination is
// unreachable get an all-zero fraction row (their traffic is lost, as under
// a network partition).
func ECMPFlow(g *graph.Graph, comms []routing.Commodity, alive func(graph.LinkID) bool, cost Cost) *routing.Flow {
	var sc ECMPScratch
	return ECMPFlowScratch(g, comms, alive, cost, &sc)
}

// ECMPScratch holds ECMPFlowScratch's reusable state: the per-destination
// distance rows (a flat table indexed by node, invalidated by generation
// stamp on every invocation — never by reallocation, so repeated calls
// hold live memory bounded by one row per destination ever routed to),
// the flattened cost/liveness inputs, and the SPF kernel scratch. The
// zero value is ready to use; a scratch must not be shared between
// concurrent calls.
type ECMPScratch struct {
	spf    Scratch
	costs  []float64
	down   graph.LinkSet
	distTo [][]float64 // row per destination node, lazily allocated, reused
	stamp  []int       // distTo[d] is valid iff stamp[d] == gen
	gen    int
}

// ECMPFlowScratch is ECMPFlow with caller-owned scratch: repeated calls
// (the weight optimizer probes hundreds of candidate weight settings)
// reuse the per-destination distance table and kernel buffers instead of
// growing a fresh map per call.
func ECMPFlowScratch(g *graph.Graph, comms []routing.Commodity, alive func(graph.LinkID) bool, cost Cost, sc *ECMPScratch) *routing.Flow {
	if cost == nil {
		cost = WeightCost(g)
	}
	f := routing.NewFlow(g, comms)
	csr := g.CSR()
	nN, nL := g.NumNodes(), g.NumLinks()
	if cap(sc.costs) < nL {
		sc.costs = make([]float64, nL)
	}
	sc.costs = sc.costs[:nL]
	for id := 0; id < nL; id++ {
		sc.costs[id] = cost(graph.LinkID(id))
	}
	var down *graph.LinkSet
	if alive != nil {
		sc.down.Clear()
		for id := 0; id < nL; id++ {
			if !alive(graph.LinkID(id)) {
				sc.down.Add(graph.LinkID(id))
			}
		}
		down = &sc.down
	}
	if len(sc.distTo) < nN {
		sc.distTo = append(sc.distTo, make([][]float64, nN-len(sc.distTo))...)
		sc.stamp = append(sc.stamp, make([]int, nN-len(sc.stamp))...)
	}
	sc.gen++
	for k, c := range comms {
		row := sc.distTo[c.Dst]
		if sc.stamp[c.Dst] != sc.gen {
			SPFTo(csr, c.Dst, sc.costs, down, &sc.spf)
			if row == nil {
				row = make([]float64, nN)
				sc.distTo[c.Dst] = row
			}
			copy(row, sc.spf.Dist)
			sc.stamp[c.Dst] = sc.gen
		}
		if fr := ecmpFractions(g, c.Src, c.Dst, alive, cost, row); fr != nil {
			f.Frac[k] = fr
		}
	}
	return f
}

// InvCapWeights sets every link's weight to refCapacity/capacity (Cisco's
// classic inverse-capacity default).
func InvCapWeights(g *graph.Graph, refCapacity float64) {
	for _, l := range g.Links() {
		g.SetWeight(l.ID, refCapacity/l.Capacity)
	}
}

// UnitWeights sets every link's weight to 1 (hop count routing).
func UnitWeights(g *graph.Graph) {
	for _, l := range g.Links() {
		g.SetWeight(l.ID, 1)
	}
}
