package mcf

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// sameResult fails unless two solves agree bit for bit on every fraction,
// the MLU and the dropped count.
func sameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Dropped != want.Dropped {
		t.Fatalf("%s: Dropped = %d, dense reference %d", name, got.Dropped, want.Dropped)
	}
	if math.Float64bits(got.MLU) != math.Float64bits(want.MLU) {
		t.Fatalf("%s: MLU = %v, dense reference %v", name, got.MLU, want.MLU)
	}
	for k := range want.Flow.Frac {
		g, w := got.Flow.Frac[k], want.Flow.Frac[k]
		for e := range w {
			if math.Float64bits(g[e]) != math.Float64bits(w[e]) {
				t.Fatalf("%s: Frac[%d][%d] = %v, dense reference %v", name, k, e, g[e], w[e])
			}
		}
	}
}

// TestMinMLUSparseMatchesDense pins the support-only MinMLU to the dense
// reference solver on every option that changes its arithmetic: failed
// links, background load, degraded capacities, a partition that drops
// ODs, and zero demand.
func TestMinMLUSparseMatchesDense(t *testing.T) {
	ab := topo.Abilene()
	abComms := routing.ODCommodities(ab.NumNodes(), traffic.Gravity(ab, 0.3*ab.TotalCapacity(), 1).At)
	sbc := topo.SBC()
	sbcComms := routing.ODCommodities(sbc.NumNodes(), traffic.Gravity(sbc, 0.3*topo.OC192*float64(sbc.NumNodes()), 3).At)

	abFail := graph.NewLinkSet(0, 5, 11)
	// Cut node 0 off: every link touching it fails, so its ODs drop.
	var cut graph.LinkSet
	for _, id := range ab.Out(0) {
		cut.Add(id)
	}
	for _, id := range ab.In(0) {
		cut.Add(id)
	}
	bg := make([]float64, ab.NumLinks())
	scale := make([]float64, ab.NumLinks())
	for e := range bg {
		bg[e] = 0.1 * ab.Link(graph.LinkID(e)).Capacity * float64(e%3)
		scale[e] = 1 - 0.1*float64(e%4)
	}
	zero := append([]routing.Commodity(nil), abComms...)
	for k := range zero {
		zero[k].Demand = 0
	}

	cases := []struct {
		name  string
		g     *graph.Graph
		comms []routing.Commodity
		opts  Options
	}{
		{"abilene", ab, abComms, Options{}},
		{"abilene/alive", ab, abComms, Options{Alive: abFail.Alive()}},
		{"abilene/background", ab, abComms, Options{Background: bg}},
		{"abilene/capscale", ab, abComms, Options{CapScale: scale, Alive: abFail.Alive()}},
		{"abilene/partition", ab, abComms, Options{Alive: cut.Alive(), Background: bg}},
		{"abilene/zero-demand", ab, zero, Options{}},
		{"sbc", sbc, sbcComms, Options{Iterations: 150}},
		{"sbc/alive", sbc, sbcComms, Options{Alive: graph.NewLinkSet(3, 17, 40).Alive()}},
	}
	for _, tc := range cases {
		want := denseMinMLU(tc.g, tc.comms, tc.opts)
		got := MinMLU(tc.g, tc.comms, tc.opts)
		sameResult(t, tc.name, got, want)
	}
	if r := MinMLU(ab, abComms, Options{Alive: cut.Alive()}); r.Dropped == 0 {
		t.Fatal("partition case dropped no OD: it does not exercise the screen")
	}
}

// TestMinMLUSparseMatchesDenseGenerated runs the differential on the
// 100-node generated topology (9,900 ODs), the base routing of the
// benchmark's plan builds, for two demand matrices.
func TestMinMLUSparseMatchesDenseGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("two 9,900-commodity dense reference solves")
	}
	g := topo.Generated()
	for _, seed := range []int64{1, 2} {
		comms := routing.ODCommodities(g.NumNodes(), traffic.Gravity(g, 0.15*g.TotalCapacity(), seed).At)
		opts := Options{Iterations: 300}
		sameResult(t, "generated", MinMLU(g, comms, opts), denseMinMLU(g, comms, opts))
	}
}

// TestMinMLUExactScreenDropsPartitioned checks the shared reachability
// screen from the exact solver's side: the same ODs drop as in MinMLU.
func TestMinMLUExactScreenDropsPartitioned(t *testing.T) {
	g := topo.Abilene()
	var comms []routing.Commodity
	for _, dst := range []graph.NodeID{1, 0, 2} {
		comms = append(comms, routing.Commodity{Src: 3, Dst: dst, Demand: 1, Link: -1})
		if dst != 0 {
			comms = append(comms, routing.Commodity{Src: 0, Dst: dst, Demand: 1, Link: -1})
		}
	}
	var cut graph.LinkSet
	for _, id := range g.Out(0) {
		cut.Add(id)
	}
	opts := Options{Alive: cut.Alive()}
	exact, err := MinMLUExact(g, comms, opts)
	if err != nil {
		t.Fatal(err)
	}
	approx := MinMLU(g, comms, opts)
	// Node 0 cannot send (all out-links down) but can still receive:
	// 0->1 and 0->2 drop, 3->0 does not.
	if exact.Dropped != 2 || approx.Dropped != 2 {
		t.Fatalf("Dropped exact=%d approx=%d, want 2", exact.Dropped, approx.Dropped)
	}
}

// maxSBCAllocs bounds TestMinMLUAllocsSBC: 2,137 measured on go1.24
// amd64, plus headroom. The dense reference solver makes about 36,000.
const maxSBCAllocs = 3000

// TestMinMLUAllocsSBC bounds the heap allocations of one SBC solve: the
// per-iteration paths, SPF scratch and cost rows must come from buffers
// reused across the whole solve, so allocations grow with the commodity
// count, not with commodities times iterations.

func TestMinMLUAllocsSBC(t *testing.T) {
	g := topo.SBC()
	comms := routing.ODCommodities(g.NumNodes(), traffic.Gravity(g, 0.3*topo.OC192*float64(g.NumNodes()), 3).At)
	opts := Options{Iterations: 150}
	allocs := testing.AllocsPerRun(3, func() { MinMLU(g, comms, opts) })
	if allocs > maxSBCAllocs {
		t.Fatalf("MinMLU on SBC: %.0f allocations per solve, want <= %d", allocs, maxSBCAllocs)
	}
}
