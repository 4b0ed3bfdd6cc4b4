package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// runFWState runs the FW solver the way PrecomputeVariations does and
// returns its final state.
func runFWState(t *testing.T, g *graph.Graph, ds []*traffic.Matrix, cfg Config) *fwState {
	t.Helper()
	comms := unionCommodities(ds)
	reqs := make([]requirement, len(ds))
	for i, d := range ds {
		reqs[i] = requirement{demands: demandVector(comms, d), model: cfg.Model}
	}
	st, err := newFWState(g, comms, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.run(cfg.Iterations)
	return st
}

// TestRowSupportCoversR checks the invariant the support-only passes over
// R rest on: after a solve, every nonzero cell of R (any nonzero bit
// pattern) lies in its row's support index, the index lists no link
// twice, and the support-only base loads equal a dense pass bit for bit.
func TestRowSupportCoversR(t *testing.T) {
	ab := topo.Abilene()
	d := traffic.Gravity(ab, 0.2*ab.TotalCapacity(), 4)
	r5 := ring5(t)
	hull := []*traffic.Matrix{ring5Demand(r5, 90), ring5Demand(r5, 90)}
	hull[0].Set(0, 2, hull[0].At(0, 2)*4)
	hull[1].Set(1, 3, hull[1].At(1, 3)*4)

	cases := []struct {
		name string
		g    *graph.Graph
		ds   []*traffic.Matrix
		cfg  Config
	}{
		{"optimized-base", ab, []*traffic.Matrix{d}, Config{Model: ArbitraryFailures{F: 1}, Iterations: 40}},
		{"delay-envelope", ab, []*traffic.Matrix{d}, Config{Model: ArbitraryFailures{F: 1}, Iterations: 40, DelayEnvelope: 1.3}},
		{"pinned-base", ab, []*traffic.Matrix{d}, Config{Model: ArbitraryFailures{F: 1}, Iterations: 40, PenaltyEnvelope: 1.1}},
		{"variations", r5, hull, Config{Model: ArbitraryFailures{F: 1}, Iterations: 60}},
	}
	for _, tc := range cases {
		st := runFWState(t, tc.g, tc.ds, tc.cfg)
		if !st.optimizeBase && tc.name != "pinned-base" {
			t.Fatalf("%s: base routing not optimized", tc.name)
		}
		nL := tc.g.NumLinks()
		for k, rk := range st.R {
			in := make([]bool, nL)
			for _, e := range st.rSupp[k] {
				if in[e] {
					t.Fatalf("%s: commodity %d lists link %d twice", tc.name, k, e)
				}
				in[e] = true
			}
			for e, v := range rk {
				if math.Float64bits(v) != 0 && !in[e] {
					t.Fatalf("%s: R[%d][%d] = %v lies off the support", tc.name, k, e, v)
				}
			}
		}
		got := st.baseLoads(st.R, nil)
		for i := range st.reqs {
			want := make([]float64, nL)
			for k, rk := range st.R {
				if dk := st.reqs[i].demands[k]; dk != 0 {
					for e, v := range rk {
						if v != 0 {
							want[e] += dk * v
						}
					}
				}
			}
			for e := range want {
				if math.Float64bits(got[i][e]) != math.Float64bits(want[e]) {
					t.Fatalf("%s: base load [%d][%d] = %v, dense pass %v", tc.name, i, e, got[i][e], want[e])
				}
			}
		}
	}
}

// TestUnreachableODRejected: on a base topology of two components, a
// positive-demand OD across them cannot be routed. The build must fail
// and name the OD instead of publishing a plan that dropped its demand.
func TestUnreachableODRejected(t *testing.T) {
	g := graph.New("two-islands")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	e := g.AddNode("e")
	g.AddDuplex(a, b, 100, 1, 1)
	g.AddDuplex(a, b, 100, 1, 1)
	g.AddDuplex(c, e, 100, 1, 1)
	g.AddDuplex(c, e, 100, 1, 1)
	d := traffic.NewMatrix(4)
	d.Set(a, b, 10)
	d.Set(b, c, 5) // crosses the gap
	d.Set(c, e, 10)
	for _, cfg := range []Config{
		{Model: ArbitraryFailures{F: 1}, Iterations: 20},
		{Model: ArbitraryFailures{F: 1}, Iterations: 20, PenaltyEnvelope: 1.1},
	} {
		plan, err := Precompute(g, d, cfg)
		if err == nil {
			t.Fatalf("plan with MLU %v published for an unreachable OD", plan.MLU)
		}
		if !strings.Contains(err.Error(), "OD 1->2") {
			t.Fatalf("error %q does not name OD 1->2", err)
		}
	}
	// Without the crossing demand the same topology plans fine.
	d.Set(b, c, 0)
	if _, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Iterations: 20}); err != nil {
		t.Fatalf("connected demand rejected: %v", err)
	}
}
