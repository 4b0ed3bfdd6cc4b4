package mcf

import (
	"math"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spf"
)

// denseMinMLU is the dense-row MinMLU the sparse solver replaced, kept
// verbatim as the reference of the differential tests: every iteration it
// zeroes a K×L direction matrix, re-groups commodities by destination in a
// map, runs the closure-cost Dijkstra and extracts paths with PathVia.
// The sparse solver must reproduce its Flow.Frac, MLU and Dropped bit for
// bit.
func denseMinMLU(g *graph.Graph, comms []routing.Commodity, opts Options) *Result {
	opts.defaults()
	nL := g.NumLinks()
	f := routing.NewFlow(g, comms)

	cap := make([]float64, nL)
	for e := 0; e < nL; e++ {
		cap[e] = g.Link(graph.LinkID(e)).Capacity
		if opts.CapScale != nil {
			cap[e] *= opts.CapScale[e]
		}
	}
	bg := opts.Background
	if bg == nil {
		bg = make([]float64, nL)
	}

	reach := make([]bool, len(comms))
	dropped := 0
	distCache := map[graph.NodeID][]float64{}
	costW := func(id graph.LinkID) float64 { return 1 }
	for k, c := range comms {
		distTo, ok := distCache[c.Dst]
		if !ok {
			distTo = spf.DijkstraTo(g, c.Dst, opts.Alive, costW)
			distCache[c.Dst] = distTo
		}
		if math.IsInf(distTo[c.Src], 1) {
			dropped++
			continue
		}
		reach[k] = true
	}

	loads := append([]float64(nil), bg...)
	invCap := func(id graph.LinkID) float64 { return 1e9 / cap[id] }
	denseAssignShortest(g, f.Comms, reach, opts.Alive, invCap, func(k int, path []graph.LinkID) {
		for _, id := range path {
			f.Frac[k][id] = 1
			loads[id] += comms[k].Demand
		}
	})

	mlu := util(loads, cap)
	if allZeroDemand(comms) || mlu == 0 {
		return &Result{Flow: f, MLU: util(bg, cap), Dropped: dropped}
	}

	dirFrac := make([][]float64, len(comms))
	gotDir := make([]bool, len(comms))
	stalls := 0
	for it := 0; it < opts.Iterations; it++ {
		mu := math.Max(mlu/500, mlu*0.05*math.Pow(0.97, float64(it)))
		q := denseSoftmax(loads, cap, mu)

		cost := func(id graph.LinkID) float64 {
			return q[id]/cap[id] + 1e-15
		}
		dirLoads := append([]float64(nil), bg...)
		for k := range dirFrac {
			gotDir[k] = false
			if dirFrac[k] == nil {
				dirFrac[k] = make([]float64, nL)
			} else {
				for e := range dirFrac[k] {
					dirFrac[k][e] = 0
				}
			}
		}
		denseAssignShortest(g, f.Comms, reach, opts.Alive, cost, func(k int, path []graph.LinkID) {
			gotDir[k] = true
			for _, id := range path {
				dirFrac[k][id] = 1
				dirLoads[id] += comms[k].Demand
			}
		})
		for k := range comms {
			if !reach[k] || gotDir[k] {
				continue
			}
			copy(dirFrac[k], f.Frac[k])
			d := comms[k].Demand
			for e, v := range f.Frac[k] {
				if v != 0 {
					dirLoads[e] += d * v
				}
			}
		}

		gap := innerUtil(q, loads, cap) - innerUtil(q, dirLoads, cap)
		if gap < opts.RelTol*mlu && it > 8 {
			break
		}

		gamma := lineSearch(loads, dirLoads, cap)
		if gamma <= 1e-9 {
			stalls++
			if stalls > 24 {
				break
			}
			continue
		}
		stalls = 0
		for e := 0; e < nL; e++ {
			loads[e] = (1-gamma)*loads[e] + gamma*dirLoads[e]
		}
		for k := range comms {
			if !reach[k] {
				continue
			}
			fk, dk := f.Frac[k], dirFrac[k]
			for e := 0; e < nL; e++ {
				fk[e] = (1-gamma)*fk[e] + gamma*dk[e]
			}
		}
		mlu = util(loads, cap)
	}

	f.RemoveLoops()
	final := append([]float64(nil), bg...)
	f.AddLoads(final)
	return &Result{Flow: f, MLU: util(final, cap), Dropped: dropped}
}

func denseAssignShortest(g *graph.Graph, comms []routing.Commodity, reach []bool, alive func(graph.LinkID) bool, cost spf.Cost, emit func(int, []graph.LinkID)) {
	groups := map[graph.NodeID][]int{}
	var order []graph.NodeID
	for k := range comms {
		if reach[k] {
			dst := comms[k].Dst
			if groups[dst] == nil {
				order = append(order, dst)
			}
			groups[dst] = append(groups[dst], k)
		}
	}
	for _, dst := range order {
		_, next := spf.DijkstraToWithNext(g, dst, alive, cost)
		for _, k := range groups[dst] {
			if path := spf.PathVia(g, comms[k].Src, next); path != nil {
				emit(k, path)
			}
		}
	}
}

func denseSoftmax(loads, cap []float64, mu float64) []float64 {
	q := make([]float64, len(loads))
	maxU := util(loads, cap)
	var sum float64
	for e := range q {
		q[e] = math.Exp((loads[e]/cap[e] - maxU) / mu)
		sum += q[e]
	}
	for e := range q {
		q[e] /= sum
	}
	return q
}
