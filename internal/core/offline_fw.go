package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/mcf"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/routing"
	"repro/internal/spf"
	"repro/internal/traffic"
)

// Solver selects the offline optimization engine.
type Solver int

// Offline solvers.
const (
	// SolverFW is the iterative smoothed Frank–Wolfe solver; it scales to
	// the largest topologies.
	SolverFW Solver = iota
	// SolverLP builds the paper's LP (7) and solves it exactly with the
	// simplex solver; intended for small topologies and tests.
	SolverLP
)

// Config controls Precompute.
type Config struct {
	// Model is the failure model to protect against (default
	// ArbitraryFailures{1}).
	Model FailureModel
	// BaseRouting fixes the base routing r (e.g. OSPF) instead of jointly
	// optimizing it. The flow's commodities are matched to the traffic
	// matrix by (src, dst).
	BaseRouting *routing.Flow
	// Solver selects the engine (default SolverFW).
	Solver Solver
	// Iterations bounds Frank–Wolfe iterations (default 200).
	Iterations int
	// PenaltyEnvelope, when >= 1, bounds the normal-case MLU to
	// PenaltyEnvelope × the optimal no-failure MLU (paper §3.5). The LP
	// solver enforces the bound exactly for any β; the FW solver
	// implements the β→1 limit by pinning the base routing to the optimal
	// no-failure flow and optimizing only the protection routing, which
	// always satisfies the envelope for β >= 1 (up to the min-MLU
	// solver's own tolerance).
	PenaltyEnvelope float64
	// Workers bounds the FW solver's parallelism (default GOMAXPROCS;
	// 1 forces serial execution). The solver's parallel loops reduce in a
	// fixed index order, so the produced plan is bit-identical for every
	// worker count — Workers trades only wall-clock time. The LP solver
	// ignores it.
	Workers int
	// Obs, when non-nil, receives solver metrics and traces: per-epoch
	// MLU/step-size spans under trace "fw", SPF and epoch counters, LP
	// pivot counts, and worker-pool gauges. Instrumentation never affects
	// the produced plan — plans are byte-identical with Obs nil or live —
	// and costs nothing when Obs is nil (all handles no-op).
	Obs *obs.Registry
	// DelayEnvelope, when >= 1, bounds each OD pair's mean propagation
	// delay to DelayEnvelope × its shortest-path delay (paper §3.5). The
	// LP solver enforces it exactly; the FW solver starts from minimum-
	// delay paths and restricts oracle directions to delay-feasible paths
	// (average delay is linear in the fractions, so every iterate stays
	// within the bound). When combined with PenaltyEnvelope under the FW
	// solver, the penalty envelope wins (the base is pinned to the
	// min-MLU routing); use the LP solver to enforce both together.
	DelayEnvelope float64
	// LPWarmBasis warm-starts the LP solver from a basis produced by a
	// previous precomputation of the same problem shape (see
	// Plan.LPBasis). A mismatched basis silently falls back to a cold
	// solve, so passing a stale basis is safe; the FW solver ignores it.
	LPWarmBasis *lp.Basis
	// SPF selects the shortest-path kernel driving the FW solver's oracle
	// sweeps (default spf.ModeAuto). Every mode produces bitwise-identical
	// shortest-path trees (see the contract in internal/spf), so the plan
	// is byte-identical whichever mode is active — SPF trades only
	// wall-clock time. The LP solver ignores it.
	SPF spf.Mode
	// Surge, when non-nil, folds a traffic-surge envelope into the
	// protection bound: for every input matrix, the surged variant (top
	// Surge.Frac OD pairs scaled by Surge.Scale) is added as an extra
	// vertex of the demand hull, so the plan is congestion-free for every
	// partial surge up to Scale as well (convexity). FW solver only.
	Surge *SurgeSpec
}

// Priority couples one traffic class with the number of failures it must
// tolerate (paper §3.5, prioritized resilient routing).
type Priority struct {
	// Demand is this class's own traffic (not cumulative).
	Demand *traffic.Matrix
	// F is the number of overlapping link failures the class tolerates.
	F int
}

// Precompute runs R3 offline precomputation for a single traffic matrix.
func Precompute(g *graph.Graph, d *traffic.Matrix, cfg Config) (*Plan, error) {
	return PrecomputeVariations(g, []*traffic.Matrix{d}, cfg)
}

// PrecomputeVariations runs offline precomputation over a convex hull of
// traffic matrices {d_1..d_H} (paper §3.5, handling traffic variations):
// the returned plan is congestion-free for every matrix in the hull plus
// virtual demands. Internally each hull vertex contributes its own set of
// utilization rows.
func PrecomputeVariations(g *graph.Graph, ds []*traffic.Matrix, cfg Config) (*Plan, error) {
	if len(ds) == 0 {
		return nil, errors.New("core: no traffic matrices")
	}
	if cfg.Model == nil {
		cfg.Model = ArbitraryFailures{F: 1}
	}
	if dm, ok := cfg.Model.(DegradationModel); ok {
		if err := dm.Validate(); err != nil {
			return nil, fmt.Errorf("core: %v", err)
		}
		// Canonicalize the hard-failure limit (uniform β = 1, integer
		// budget) to the classic model before dispatch: the solvers' fast
		// paths, the LP branch and every golden plan stay byte-identical.
		if f, ok := dm.degenerate(); ok {
			cfg.Model = ArbitraryFailures{F: f}
		}
	}
	if cfg.Surge != nil {
		if err := cfg.Surge.Validate(); err != nil {
			return nil, fmt.Errorf("core: %v", err)
		}
		if cfg.Solver == SolverLP {
			return nil, errors.New("core: surge envelopes require the FW solver (the LP builds a single-matrix program)")
		}
		// Fold each matrix's surged variant into the demand hull as an
		// extra vertex; convexity then covers every partial surge.
		withSurge := make([]*traffic.Matrix, 0, 2*len(ds))
		withSurge = append(withSurge, ds...)
		for _, d := range ds {
			withSurge = append(withSurge, cfg.Surge.Apply(d))
		}
		ds = withSurge
	}
	if cfg.Solver == SolverLP {
		if len(ds) != 1 {
			return nil, errors.New("core: LP solver supports a single matrix")
		}
		return precomputeLP(g, ds[0], cfg)
	}
	// Union of OD supports, demands from the envelope max... no: each
	// hull vertex is its own requirement with the same failure model.
	comms := unionCommodities(ds)
	reqs := make([]requirement, len(ds))
	for i, d := range ds {
		reqs[i] = requirement{demands: demandVector(comms, d), model: cfg.Model}
	}
	return solveFW(g, comms, reqs, cfg)
}

// PrecomputePrioritized runs offline precomputation for prioritized
// traffic classes (paper §3.5): class i must be protected against F_i
// failures, enforced through cumulative demand sets d_i + X_{F_i}.
func PrecomputePrioritized(g *graph.Graph, classes []Priority, cfg Config) (*Plan, error) {
	if len(classes) == 0 {
		return nil, errors.New("core: no priority classes")
	}
	if cfg.Solver == SolverLP {
		return nil, errors.New("core: prioritized precomputation requires the FW solver")
	}
	// Sort by descending F and build cumulative demands: d_i is the total
	// traffic needing protection level F_i or higher.
	sorted := append([]Priority(nil), classes...)
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j].F > sorted[i].F {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	mats := make([]*traffic.Matrix, len(sorted))
	for i := range sorted {
		mats[i] = sorted[i].Demand
	}
	comms := unionCommodities(mats)

	var reqs []requirement
	cum := traffic.NewMatrix(sorted[0].Demand.N)
	for i := 0; i < len(sorted); i++ {
		cum = cum.Add(sorted[i].Demand)
		// Requirement: cumulative demand from the highest classes down to
		// i, protected against F_i failures.
		reqs = append(reqs, requirement{
			demands: demandVector(comms, cum),
			model:   ArbitraryFailures{F: sorted[i].F},
		})
	}
	// Reverse so reqs[0] carries the full demand (used for NormalMLU and
	// penalty envelope rows).
	for i, j := 0, len(reqs)-1; i < j; i, j = i+1, j-1 {
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
	if cfg.Model == nil {
		cfg.Model = ArbitraryFailures{F: sorted[0].F}
	}
	return solveFW(g, comms, reqs, cfg)
}

// requirement is one "demand set + failure model" pair: the plan must keep
// every link's base load (under demands) plus worst-case virtual load
// (under model) within MLU × capacity.
type requirement struct {
	demands []float64 // per commodity
	model   FailureModel
}

// unionCommodities builds OD commodities over the union of supports.
func unionCommodities(ds []*traffic.Matrix) []routing.Commodity {
	n := ds[0].N
	return routing.ODCommodities(n, func(a, b graph.NodeID) float64 {
		var m float64
		for _, d := range ds {
			if v := d.At(a, b); v > m {
				m = v
			}
		}
		return m
	})
}

func demandVector(comms []routing.Commodity, d *traffic.Matrix) []float64 {
	v := make([]float64, len(comms))
	for k, c := range comms {
		v[k] = d.At(c.Src, c.Dst)
	}
	return v
}

// solveFW is the iterative offline solver: smoothed Frank–Wolfe over the
// product of flow polytopes for (r, p).
func solveFW(g *graph.Graph, comms []routing.Commodity, reqs []requirement, cfg Config) (*Plan, error) {
	iters := cfg.Iterations
	if iters == 0 {
		iters = 200
	}
	st, err := newFWState(g, comms, reqs, cfg)
	if err != nil {
		return nil, err
	}
	st.run(iters)

	// ---- Package the plan ----
	base := routing.NewFlow(g, comms)
	for k := range comms {
		base.Frac[k] = st.R[k]
		base.Comms[k].Demand = reqs[0].demands[k]
	}
	base.RemoveLoops()
	sanitizeProt(g, st.P)
	plan := &Plan{
		G:     g,
		Model: reqs[highestModelIndex(reqs)].model,
		Base:  base,
		Prot:  st.P,
		MLU:   st.objective(),
	}
	plan.NormalMLU = routing.MLU(g, base.Loads())
	// The epoch loop tracked the running objective; settle the gauge on
	// the restored-best plan value.
	st.o.mlu.Set(plan.MLU)
	return plan, nil
}

// newFWState builds the solver's starting iterate: the base routing R
// (optimized from a MinMLU start, pinned to the MinMLU optimum under a
// penalty envelope, or the caller's), the protection routing P and the
// delay envelope bounds.
func newFWState(g *graph.Graph, comms []routing.Commodity, reqs []requirement, cfg Config) (*fwState, error) {
	nL := g.NumLinks()
	nK := len(comms)
	capac := make([]float64, nL)
	for e := 0; e < nL; e++ {
		capac[e] = g.Link(graph.LinkID(e)).Capacity
	}

	// ---- Initialization ----
	optimizeBase := cfg.BaseRouting == nil
	R := make([][]float64, nK)
	totalDemand := reqs[0].demands
	if optimizeBase {
		initComms := make([]routing.Commodity, nK)
		copy(initComms, comms)
		for k := range initComms {
			initComms[k].Demand = totalDemand[k]
		}
		initIters := 120
		if cfg.PenaltyEnvelope >= 1 {
			// Penalty envelope (FW): pin the base to the optimal
			// no-failure routing — the β→1 limit of the paper's hard
			// constraint — and optimize only p below.
			initIters = 300
			optimizeBase = false
		}
		res := mcf.MinMLU(g, initComms, mcf.Options{Iterations: initIters})
		if res.Dropped > 0 {
			return nil, unreachableODError(res.Flow)
		}
		for k := 0; k < nK; k++ {
			R[k] = append([]float64(nil), res.Flow.Frac[k]...)
		}
	} else {
		// Match provided flow rows by OD pair.
		type pair struct{ a, b graph.NodeID }
		rows := make(map[pair][]float64, len(cfg.BaseRouting.Comms))
		for k, c := range cfg.BaseRouting.Comms {
			rows[pair{c.Src, c.Dst}] = cfg.BaseRouting.Frac[k]
		}
		for k, c := range comms {
			row, ok := rows[pair{c.Src, c.Dst}]
			if !ok {
				return nil, fmt.Errorf("core: base routing missing OD pair %d->%d", c.Src, c.Dst)
			}
			R[k] = append([]float64(nil), row...)
		}
	}

	// Protection init: shortest detour avoiding the link itself when one
	// exists, otherwise route on the link (p_l(l)=1 means "unprotected").
	P := make([][]float64, nL)
	for l := 0; l < nL; l++ {
		P[l] = make([]float64, nL)
		lid := graph.LinkID(l)
		link := g.Link(lid)
		avoid := func(id graph.LinkID) bool { return id != lid }
		path := spf.ShortestPath(g, link.Src, link.Dst, avoid, spf.WeightCost(g))
		if path == nil {
			P[l][l] = 1
		} else {
			for _, id := range path {
				P[l][id] = 1
			}
		}
	}

	// Delay envelope bounds per commodity. Average path delay is linear in
	// the routing fractions, so starting from the (trivially feasible)
	// minimum-delay paths and only ever mixing in delay-feasible oracle
	// paths keeps every iterate inside the envelope.
	var delayCap []float64
	if cfg.DelayEnvelope >= 1 {
		delayCap = make([]float64, nK)
		nextCache := map[graph.NodeID][]graph.LinkID{}
		distCache := map[graph.NodeID][]float64{}
		for k, c := range comms {
			dist, ok := distCache[c.Dst]
			if !ok {
				var next []graph.LinkID
				dist, next = spf.DijkstraToWithNext(g, c.Dst, nil, spf.DelayCost(g))
				distCache[c.Dst] = dist
				nextCache[c.Dst] = next
			}
			delayCap[k] = cfg.DelayEnvelope * dist[c.Src]
			if optimizeBase {
				for e := range R[k] {
					R[k][e] = 0
				}
				for _, id := range spf.PathVia(g, c.Src, nextCache[c.Dst]) {
					R[k][id] = 1
				}
			}
		}
	}

	st := &fwState{
		g: g, comms: comms, reqs: reqs, capac: capac,
		R: R, P: P, delayCap: delayCap,
		optimizeBase: optimizeBase,
		pool:         par.New(cfg.Workers),
		o:            newFWObs(cfg.Obs),
		spfMode:      cfg.SPF.Resolve(g.NumNodes()),
	}
	if cfg.Obs != nil {
		pool := st.pool
		cfg.Obs.GaugeFunc("fw.pool_pending", pool.Pending)
		cfg.Obs.GaugeFunc("fw.pool_loops", func() int64 { loops, _ := pool.Stats(); return loops })
		cfg.Obs.GaugeFunc("fw.pool_items", func() int64 { _, items := pool.Stats(); return items })
	}
	return st, nil
}

// unreachableODError names the first commodity that MinMLU dropped as
// unreachable: its row carries no flow. Every commodity here has positive
// demand in some matrix, so a plan that dropped it would under-report its
// MLU.
func unreachableODError(f *routing.Flow) error {
	for k, row := range f.Frac {
		routed := false
		for _, v := range row {
			if v != 0 {
				routed = true
				break
			}
		}
		if !routed {
			c := f.Comms[k]
			return fmt.Errorf("core: OD %d->%d (demand %g) is unreachable in the base topology", c.Src, c.Dst, c.Demand)
		}
	}
	return errors.New("core: base routing dropped an unreachable OD")
}

func highestModelIndex(reqs []requirement) int {
	best, bi := -1, 0
	for i, r := range reqs {
		if f := r.model.MaxFailures(); f > best {
			best, bi = f, i
		}
	}
	return bi
}

// fwObs bundles the solver's metric handles. The zero value (all nil) is
// the uninstrumented configuration: every call is a nil-receiver no-op,
// so the solver code reports unconditionally.
type fwObs struct {
	spf       *obs.Counter    // Dijkstra invocations in the solver loop
	repairs   *obs.Counter    // incremental tree repairs (spf.incremental_repairs)
	fallbacks *obs.Counter    // flat rebuilds of dynamic trees (spf.full_fallbacks)
	dirtyFrac *obs.Histogram  // dirty-link percentage per tree update (spf.dirty_frac)
	epochs    *obs.Counter    // completed FW epochs
	mlu       *obs.FloatGauge // latest true objective
	step      *obs.FloatGauge // latest accepted global step size
	trace     *obs.Trace      // span tree: fw.run > epoch > {directions, global-step, r-sweep, p-sweep}
}

func newFWObs(reg *obs.Registry) fwObs {
	if reg == nil {
		return fwObs{}
	}
	return fwObs{
		spf:       reg.Counter("fw.spf"),
		repairs:   reg.Counter("spf.incremental_repairs"),
		fallbacks: reg.Counter("spf.full_fallbacks"),
		dirtyFrac: reg.Histogram("spf.dirty_frac", obs.LinearBounds(0, 10, 10)),
		epochs:    reg.Counter("fw.epochs"),
		mlu:       reg.FloatGauge("fw.mlu"),
		step:      reg.FloatGauge("fw.step"),
		trace:     reg.Trace("fw"),
	}
}

// noteUpdate routes one DynTree.Update outcome to the observability
// handles (all no-ops when uninstrumented).
func (o *fwObs) noteUpdate(kind spf.UpdateKind, frac float64) {
	switch kind {
	case spf.UpdateRepaired:
		o.repairs.Inc()
	case spf.UpdateRebuilt:
		o.fallbacks.Inc()
	}
	if kind != spf.UpdateNone {
		o.dirtyFrac.Observe(int64(frac * 100))
	}
}

// fwState carries the Frank–Wolfe iterate.
type fwState struct {
	g            *graph.Graph
	comms        []routing.Commodity
	reqs         []requirement
	capac        []float64
	R            [][]float64 // [commodity][link]
	P            [][]float64 // [protected link][link]
	delayCap     []float64   // nil when no delay envelope
	optimizeBase bool
	pool         *par.Pool
	o            fwObs
	spfMode      spf.Mode // resolved kernel mode (never ModeAuto)

	// Row-support index of R: rSupp[k] lists, in no particular order,
	// every link on which row k has been nonzero since the index was
	// built, and rMark is its membership bitmap (rWords words per row).
	// Every cell of R off its row's support is +0, so passes over R read
	// only the support (see DESIGN.md §9, "Sparse commodity rows").
	rSupp  [][]graph.LinkID
	rMark  []uint64
	rWords int

	// best-so-far snapshot by true objective
	bestObj float64
	bestR   [][]float64
	bestP   [][]float64

	// scratch
	pcol [][]float64 // [link e][protected l]: c_l * P[l][e]

	// hot-path arenas: every per-epoch buffer the solver used to allocate
	// lives here and is reused across epochs (see DESIGN.md §9). csr is
	// the flat graph view the SPF kernel reads; tops maintains each pcol
	// column's largest entries incrementally when every requirement is an
	// ArbitraryFailures model (topK = max F + 1; 0 disables it).
	csr     *graph.CSR
	ar      fwArena
	tops    []colTop
	topK    int
	spfPool spf.ScratchPool
	bufMu   sync.Mutex
	bufFree [][]float64 // free list of len-nL rows for per-worker scratch

	// Incremental-SPF state (spfMode != ModeFlat): one dynamic reverse
	// tree per protected link, repaired across epochs from the sparse
	// gradient-cost deltas instead of rebuilt by a full Dijkstra.
	pTrees   []spf.DynTree
	stampGen int32 // generation for ar.stampE
	pbMu     sync.Mutex
	pbFree   [][]graph.LinkID // free list of path scratch for delayBoundedPath
}

// fwArena holds the solver's reusable buffers. Ownership rule: a buffer is
// either fully overwritten by its producer before any read (q, us, dirRows,
// dirP, pcolDir, dirLoads, rCost, diff) or explicitly zeroed at the start
// of the producing pass (costP, loads, and dirR on its row's support, the
// only cells it is ever written on); consumers never read a buffer across
// an epoch boundary.
type fwArena struct {
	objLoads [][]float64 // objective(): base loads [req][link]
	loads    [][]float64 // run(): epoch base loads [req][link]
	q        [][]float64 // softmax gradient weights [req][link]
	u0       [][]float64 // r-sweep: static utilizations [req][link]
	expu     [][]float64 // r-sweep: cached exp terms for u0 [req][link]
	diff     []float64   // r-sweep: xDir - rk per link
	active   []int32     // r-sweep: links with nonzero diff
	dirRows  [][]float64 // global step: direction row per commodity (R[k] itself, or its dirR row)
	dirR     [][]float64 // global step: oracle-path rows [commodity][link] (optimizeBase only)
	dirLoads [][]float64 // global step: direction loads [req][link]
	dirP     [][]float64 // global step: direction protection [link][link]
	pcolDir  [][]float64 // global step: direction columns [link][link]
	us       []float64   // global step: utilization cells [req*link]
	costP    [][]float64 // pDirections: gradient costs [protected][link]
	rCost    []float64   // rDirections: shared cost row (single requirement)
	rPaths   [][]graph.LinkID
	pPaths   [][]graph.LinkID
	rPathBuf [][]graph.LinkID // retained path storage per commodity
	pPathBuf [][]graph.LinkID // retained path storage per protected link
	dsts     []graph.NodeID   // rDirections: sorted distinct destinations
	dstComms [][]int          // rDirections: commodities per destination

	// Incremental-SPF scratch (unused under ModeFlat).
	pPat     [][]int32        // pDirections: previous epoch's nonzero cells per protected link
	pPatNew  [][]int32        // pDirections: current epoch's nonzero cells per protected link
	patPairs [][]int32        // pDirections: per-chunk (l, e) first-contribution pairs
	pIDs     [][]int32        // pDirections: per-link candidate link ids (old ∪ new pattern)
	pVals    [][]float64      // pDirections: per-link candidate costs, aligned with pIDs
	stampE   []int32          // p-sweep: generation-stamped active-cell marker per link
	active2  []int32          // p-sweep: active cells of the last accepted block
	delay    []float64        // delayBoundedPath: per-link propagation delay row
	dPathBuf [][]graph.LinkID // retained delay-bounded path per commodity
}

func newMatrix(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
	}
	return m
}

// ensureArena sizes the reusable buffers once per solve.
func (s *fwState) ensureArena() {
	if s.ar.q != nil {
		return
	}
	nI, nK, nL := len(s.reqs), len(s.comms), s.g.NumLinks()
	a := &s.ar
	a.loads = newMatrix(nI, nL)
	a.q = newMatrix(nI, nL)
	a.u0 = newMatrix(nI, nL)
	a.expu = newMatrix(nI, nL)
	a.diff = make([]float64, nL)
	a.active = make([]int32, nL)
	a.dirRows = make([][]float64, nK)
	if s.optimizeBase {
		a.dirR = newMatrix(nK, nL)
	}
	a.dirLoads = newMatrix(nI, nL)
	a.dirP = newMatrix(nL, nL)
	a.pcolDir = newMatrix(nL, nL)
	a.us = make([]float64, nI*nL)
	a.costP = newMatrix(nL, nL)
	a.rCost = make([]float64, nL)
	a.rPaths = make([][]graph.LinkID, nK)
	a.pPaths = make([][]graph.LinkID, nL)
	a.rPathBuf = make([][]graph.LinkID, nK)
	a.pPathBuf = make([][]graph.LinkID, nL)
	a.delay = make([]float64, nL)
	for e := 0; e < nL; e++ {
		a.delay[e] = s.g.Link(graph.LinkID(e)).Delay
	}
	a.dPathBuf = make([][]graph.LinkID, nK)
	if s.spfMode != spf.ModeFlat {
		a.pPat = make([][]int32, nL)
		a.pPatNew = make([][]int32, nL)
		a.pIDs = make([][]int32, nL)
		a.pVals = make([][]float64, nL)
		a.stampE = make([]int32, nL)
		a.active2 = make([]int32, nL)
	}
}

// getBuf and putBuf recycle len-nL float rows for per-worker scratch in
// parallel loops (scratch contents never affect results, so recycling
// order is immaterial to determinism).
func (s *fwState) getBuf() []float64 {
	s.bufMu.Lock()
	defer s.bufMu.Unlock()
	if n := len(s.bufFree); n > 0 {
		b := s.bufFree[n-1]
		s.bufFree = s.bufFree[:n-1]
		return b
	}
	return make([]float64, s.g.NumLinks())
}

func (s *fwState) putBuf(b []float64) {
	s.bufMu.Lock()
	s.bufFree = append(s.bufFree, b)
	s.bufMu.Unlock()
}

// baseLoads computes per-requirement per-link base loads for fractions R
// into dst (allocated when nil). R is s.R or the global step's direction
// rows, whose nonzeros all lie on the row-support index, so each row is
// read only there. Every link cell is zeroed and then summed over
// commodities in ascending k order — the order of the dense pass — so the
// loads are bit-identical to it; warm calls are allocation-free.
func (s *fwState) baseLoads(R [][]float64, dst [][]float64) [][]float64 {
	if dst == nil {
		dst = newMatrix(len(s.reqs), s.g.NumLinks())
	}
	supp := s.support()
	for i := range s.reqs {
		dem := s.reqs[i].demands
		li := dst[i]
		for e := range li {
			li[e] = 0
		}
		for k, sk := range supp {
			d := dem[k]
			if d == 0 {
				continue
			}
			rk := R[k]
			for _, e := range sk {
				if v := rk[e]; v != 0 {
					li[e] += d * v
				}
			}
		}
	}
	return dst
}

// support returns the row-support index of R, building it from R's
// nonzero cells (any nonzero bit pattern, -0 included) on first use.
func (s *fwState) support() [][]graph.LinkID {
	if s.rSupp != nil {
		return s.rSupp
	}
	nL := s.g.NumLinks()
	s.rWords = (nL + 63) / 64
	s.rMark = make([]uint64, len(s.R)*s.rWords)
	s.rSupp = make([][]graph.LinkID, len(s.R))
	for k, rk := range s.R {
		mark := s.rMark[k*s.rWords : (k+1)*s.rWords]
		for e, v := range rk {
			if math.Float64bits(v) != 0 {
				mark[e/64] |= 1 << (uint(e) % 64)
				s.rSupp[k] = append(s.rSupp[k], graph.LinkID(e))
			}
		}
	}
	return s.rSupp
}

// growSupport adds the links of path to row k's support. It touches only
// row k's entries, so distinct rows may grow concurrently.
func (s *fwState) growSupport(k int, path []graph.LinkID) {
	mark := s.rMark[k*s.rWords : (k+1)*s.rWords]
	for _, id := range path {
		if bit := uint64(1) << (uint(id) % 64); mark[id/64]&bit == 0 {
			mark[id/64] |= bit
			s.rSupp[k] = append(s.rSupp[k], id)
		}
	}
}

// columns builds pcol[e][l] = c_l * P[l][e].
func (s *fwState) columns(P [][]float64, dst [][]float64) [][]float64 {
	nL := s.g.NumLinks()
	if dst == nil {
		dst = make([][]float64, nL)
		for e := range dst {
			dst[e] = make([]float64, nL)
		}
	}
	// Each worker owns a contiguous range of columns dst[e][·]; entries
	// are pure assignments, so any split is bit-identical to serial. The
	// inline variant performs the same assignments with plain loops.
	if s.pool.Inline() {
		for e := 0; e < nL; e++ {
			col := dst[e]
			for l := range col {
				col[l] = 0
			}
		}
		for l := 0; l < nL; l++ {
			cl := s.capac[l]
			pl := P[l]
			for e := 0; e < nL; e++ {
				if v := pl[e]; v != 0 {
					dst[e][l] = cl * v
				}
			}
		}
		return dst
	}
	s.pool.ForEachChunk(nL, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			col := dst[e]
			for l := range col {
				col[l] = 0
			}
		}
		for l := 0; l < nL; l++ {
			cl := s.capac[l]
			pl := P[l]
			for e := lo; e < hi; e++ {
				if v := pl[e]; v != 0 {
					dst[e][l] = cl * v
				}
			}
		}
	})
	return dst
}

// objective evaluates the true (non-smoothed) objective of the current
// iterate: max over requirements and links of utilization. Per-cell values
// feed a max, which is order-insensitive, so the inline and chunk-reduced
// evaluations agree bit for bit.
func (s *fwState) objective() float64 {
	nL := s.g.NumLinks()
	if s.ar.objLoads == nil {
		s.ar.objLoads = newMatrix(len(s.reqs), nL)
	}
	loads := s.baseLoads(s.R, s.ar.objLoads)
	s.pcol = s.columns(s.P, s.pcol)
	worst := 0.0
	if s.pool.Inline() {
		for i := range s.reqs {
			li := loads[i]
			model := s.reqs[i].model
			for e := 0; e < nL; e++ {
				if u := (li[e] + model.WorstLoad(s.pcol[e])) / s.capac[e]; u > worst {
					worst = u
				}
			}
		}
		return worst
	}
	for i := range s.reqs {
		li := loads[i]
		model := s.reqs[i].model
		wi := par.Reduce(s.pool, nL, 0.0, func(lo, hi int) float64 {
			w := 0.0
			for e := lo; e < hi; e++ {
				if u := (li[e] + model.WorstLoad(s.pcol[e])) / s.capac[e]; u > w {
					w = u
				}
			}
			return w
		}, math.Max)
		if wi > worst {
			worst = wi
		}
	}
	return worst
}

// run executes the Frank–Wolfe loop.

// run executes the offline optimization as a hybrid of global Frank–Wolfe
// steps and block-coordinate refinement. Each epoch: (1) compute softmax
// gradient weights of the smoothed min-max objective; (2) take one global
// step — every commodity moves toward its oracle path with a shared step
// size found by line search — which escapes configurations where the max
// is supported by many commodities at once; (3) sweep every block (OD
// commodity, then every protected link) with its own exact line search,
// which refines solutions global FW only reaches with O(1/t) zig-zagging.
// The best iterate by true objective is kept. effort scales the epoch
// count.
func (s *fwState) run(effort int) {
	epochs := effort / 5
	if epochs < 12 {
		epochs = 12
	}
	if epochs > 120 {
		epochs = 120
	}
	nL := s.g.NumLinks()
	nI := len(s.reqs)

	// Fast insertion-stats evaluation applies when every model is
	// ArbitraryFailures (the common case, including priorities), with a
	// second fast path for GroupFailures with K=1 (the SRLG+MLG model the
	// US-ISP experiments use).
	arbF := make([]int, nI)
	allArb := true
	grp1 := make([]GroupFailures, nI)
	allGrp1 := true
	for i, r := range s.reqs {
		// insertionStats supports F <= 32; larger F (e.g. the naive
		// all-links ablation) falls back to the generic evaluation.
		if m, ok := r.model.(ArbitraryFailures); ok && m.F <= 32 {
			arbF[i] = m.F
		} else {
			allArb = false
		}
		if m, ok := r.model.(GroupFailures); ok && m.K == 1 {
			grp1[i] = m
		} else {
			allGrp1 = false
		}
	}

	s.bestObj = math.Inf(1)
	s.ensureArena()
	s.csr = s.g.CSR()
	if s.spfMode != spf.ModeFlat && s.pTrees == nil {
		s.pTrees = make([]spf.DynTree, nL)
		useDelta := s.spfMode == spf.ModeDelta
		for l := 0; l < nL; l++ {
			s.pTrees[l].Reset(s.csr, s.g.Link(graph.LinkID(l)).Dst, useDelta)
		}
	}

	// Incremental top-F selection per pcol column: valid whenever every
	// model is ArbitraryFailures. K is one more than the largest F so the
	// per-link line-search stats (which exclude one index) always find
	// enough entries in the buffer.
	s.topK = 0
	if allArb {
		maxF := 0
		for _, f := range arbF {
			if f > maxF {
				maxF = f
			}
		}
		s.topK = maxF + 1
		if s.tops == nil {
			s.tops = make([]colTop, nL)
		}
	}
	// The incremental p sweep rides on the colTop fast path (allArb with
	// worstArb-valid F on every requirement); ModeFlat keeps the reference
	// evaluation, which the differential tests compare against.
	incSweep := s.spfMode != spf.ModeFlat && s.topK > 0
	for _, f := range arbF {
		if f >= nL {
			incSweep = false
		}
	}
	rebuildTops := func() {
		if s.topK == 0 {
			return
		}
		if s.pool.Inline() {
			for e := 0; e < nL; e++ {
				s.tops[e].rebuild(s.pcol[e], s.topK)
			}
			return
		}
		s.pool.ForEachChunk(nL, func(lo, hi int) {
			for e := lo; e < hi; e++ {
				s.tops[e].rebuild(s.pcol[e], s.topK)
			}
		})
	}

	loads := s.baseLoads(s.R, s.ar.loads)
	s.pcol = s.columns(s.P, s.pcol)
	W := make([][]float64, nI)
	for i := range W {
		W[i] = make([]float64, nL)
	}
	nC := par.NumChunks(nL)
	fillW := func(i, lo, hi int) {
		Wi := W[i]
		// The maintained top buffers answer sumTopK bit for bit as long as
		// F stays below the column length (the reference switches to
		// index-order summation at F >= len).
		if s.topK > 0 && arbF[i] < nL {
			F := arbF[i]
			for e := lo; e < hi; e++ {
				Wi[e] = s.tops[e].worstArb(F)
			}
			return
		}
		model := s.reqs[i].model
		for e := lo; e < hi; e++ {
			Wi[e] = model.WorstLoad(s.pcol[e])
		}
	}
	recomputeW := func() {
		if s.pool.Inline() {
			for i := 0; i < nI; i++ {
				fillW(i, 0, nL)
			}
			return
		}
		s.pool.ForEach(nI*nC, func(t int) {
			i := t / nC
			lo, hi := par.Chunk(nL, t%nC)
			fillW(i, lo, hi)
		})
	}
	rebuildTops()
	recomputeW()

	rowU := func(i, e int) float64 { return (loads[i][e] + W[i][e]) / s.capac[e] }
	trueObj := func() float64 {
		worst := 0.0
		for i := 0; i < nI; i++ {
			i := i
			wi := par.Reduce(s.pool, nL, 0.0, func(lo, hi int) float64 {
				w := 0.0
				for e := lo; e < hi; e++ {
					if u := rowU(i, e); u > w {
						w = u
					}
				}
				return w
			}, math.Max)
			if wi > worst {
				worst = wi
			}
		}
		return worst
	}

	scratchCol := make([]float64, nL)
	xDir := make([]float64, nL)
	sFm1 := make([][]float64, nI)
	aF := make([][]float64, nI)
	// Group-model stats: best group sum not containing l (sS/sM) and best
	// sum among groups containing l with l's own entry removed (mSl/mMl),
	// per requirement and link.
	sS := make([][]float64, nI)
	mSl := make([][]float64, nI)
	sM := make([][]float64, nI)
	mMl := make([][]float64, nI)
	for i := range sFm1 {
		sFm1[i] = make([]float64, nL)
		aF[i] = make([]float64, nL)
		sS[i] = make([]float64, nL)
		mSl[i] = make([]float64, nL)
		sM[i] = make([]float64, nL)
		mMl[i] = make([]float64, nL)
	}

	obj := trueObj()
	s.snapshotBest(obj)
	s.o.mlu.Set(obj)
	runSp := s.o.trace.Start("fw.run")
	defer runSp.End()

	for epoch := 0; epoch < epochs; epoch++ {
		mu := math.Max(obj*0.002, obj*0.05*math.Pow(0.8, float64(epoch)))
		if obj == 0 {
			break
		}
		epochSp := runSp.Child("epoch")

		// ---- Softmax gradient weights ----
		// The exp fill is slot-parallel; the normalizing sum stays serial
		// in (i, e) order so its float association never changes.
		q := s.ar.q
		if s.pool.Inline() {
			for i := 0; i < nI; i++ {
				qi := q[i]
				for e := 0; e < nL; e++ {
					qi[e] = math.Exp((rowU(i, e) - obj) / mu)
				}
			}
		} else {
			s.pool.ForEach(nI*nC, func(t int) {
				i := t / nC
				lo, hi := par.Chunk(nL, t%nC)
				qi := q[i]
				for e := lo; e < hi; e++ {
					qi[e] = math.Exp((rowU(i, e) - obj) / mu)
				}
			})
		}
		var zsum float64
		for i := 0; i < nI; i++ {
			for e := 0; e < nL; e++ {
				zsum += q[i][e]
			}
		}
		inv := 1 / zsum
		for i := 0; i < nI; i++ {
			for e := 0; e < nL; e++ {
				q[i][e] *= inv
			}
		}

		// ---- Oracle directions ----
		dirSp := epochSp.Child("directions")
		var rPaths [][]graph.LinkID
		if s.optimizeBase {
			rPaths = s.rDirections(q)
		}
		pPaths := s.pDirections(q)
		dirSp.End()

		// ---- Global step ----
		gsSp := epochSp.Child("global-step")
		gamma := s.globalStep(loads, rPaths, pPaths, mu)
		gsSp.End()
		s.o.step.Set(gamma)
		rebuildTops()
		recomputeW()
		s.baseLoads(s.R, loads)

		// ---- r block sweep ----
		// A commodity block moves at most the links on its oracle path and
		// its current support; every other (requirement, link) cell is
		// static during the line search. The reference evaluation computes
		// u = (loads + gamma*d*(xDir-rk) + W) / capac for every cell; for a
		// static cell the middle term is a signed zero (gamma*d >= 0 times
		// diff, which is +0 when zero, or gamma*0 = +0 times any diff,
		// which is at worst -0), and adding a signed zero to loads (never
		// -0: base loads are sums of nonnegative terms with exact
		// cancellation rounding to +0) reproduces loads bitwise. Static
		// utilizations u0 are therefore constant across the whole sweep
		// between accepted blocks, and their exp terms exp((u0 - worst)/mu)
		// depend only on the current reference point `worst`: they are
		// cached in expu keyed on cachedWorst and refilled only when worst
		// moves. The z sum still walks every (i, e) cell in ascending order
		// adding bitwise-identical values, so the evaluation — and the
		// accepted plan — matches the reference exactly while computing
		// math.Exp only for the few active cells plus cache refills.
		rSweepSp := epochSp.Child("r-sweep")
		if s.optimizeBase {
			u0 := s.ar.u0
			expu := s.ar.expu
			diff := s.ar.diff
			act := s.ar.active
			fillU0 := func(i, lo, hi int) {
				li, Wi, u0i := loads[i], W[i], u0[i]
				for e := lo; e < hi; e++ {
					u0i[e] = (li[e] + Wi[e]) / s.capac[e]
				}
			}
			if s.pool.Inline() {
				for i := 0; i < nI; i++ {
					fillU0(i, 0, nL)
				}
			} else {
				s.pool.ForEach(nI*nC, func(t int) {
					i := t / nC
					lo, hi := par.Chunk(nL, t%nC)
					fillU0(i, lo, hi)
				})
			}
			cachedWorst := math.NaN()
			refill := func(worst float64) {
				fill := func(i, lo, hi int) {
					u0i, ei := u0[i], expu[i]
					for e := lo; e < hi; e++ {
						ei[e] = math.Exp((u0i[e] - worst) / mu)
					}
				}
				if s.pool.Inline() {
					for i := 0; i < nI; i++ {
						fill(i, 0, nL)
					}
				} else {
					s.pool.ForEach(nI*nC, func(t int) {
						i := t / nC
						lo, hi := par.Chunk(nL, t%nC)
						fill(i, lo, hi)
					})
				}
				cachedWorst = worst
			}
			for k := range s.comms {
				path := rPaths[k]
				if path == nil {
					continue
				}
				for e := range xDir {
					xDir[e] = 0
				}
				for _, id := range path {
					xDir[id] = 1
				}
				rk := s.R[k]
				nAct := 0
				for e := 0; e < nL; e++ {
					d := xDir[e] - rk[e]
					diff[e] = d
					if d != 0 {
						act[nAct] = int32(e)
						nAct++
					}
				}
				hasDemand := false
				for i := 0; i < nI; i++ {
					if s.reqs[i].demands[k] != 0 {
						hasDemand = true
						break
					}
				}
				if nAct == 0 || !hasDemand {
					// Every cell is static: the reference evaluation is
					// constant in gamma, so its accept test
					// eval(gamma) >= eval(0) - 1e-15 always rejects, and a
					// rejected block leaves rk, loads and the caches
					// untouched. Skipping is bit-identical.
					continue
				}
				// Max over the static cells; max is order-insensitive, so
				// folding them per row here and merging with the active
				// cells below reproduces the reference max exactly.
				staticMax := 0.0
				for i := 0; i < nI; i++ {
					u0i := u0[i]
					if s.reqs[i].demands[k] == 0 {
						for e := 0; e < nL; e++ {
							if u0i[e] > staticMax {
								staticMax = u0i[e]
							}
						}
						continue
					}
					for e := 0; e < nL; e++ {
						if diff[e] == 0 && u0i[e] > staticMax {
							staticMax = u0i[e]
						}
					}
				}
				eval := func(gamma float64) float64 {
					worst := staticMax
					for i := 0; i < nI; i++ {
						d := s.reqs[i].demands[k]
						if d == 0 {
							continue
						}
						gd := gamma * d
						li, Wi := loads[i], W[i]
						for _, e32 := range act[:nAct] {
							e := int(e32)
							u := (li[e] + gd*diff[e] + Wi[e]) / s.capac[e]
							if u > worst {
								worst = u
							}
						}
					}
					if worst != cachedWorst {
						refill(worst)
					}
					var z float64
					for i := 0; i < nI; i++ {
						d := s.reqs[i].demands[k]
						ei := expu[i]
						if d == 0 {
							for e := 0; e < nL; e++ {
								z += ei[e]
							}
							continue
						}
						gd := gamma * d
						li, Wi := loads[i], W[i]
						for e := 0; e < nL; e++ {
							if diff[e] != 0 {
								u := (li[e] + gd*diff[e] + Wi[e]) / s.capac[e]
								z += math.Exp((u - worst) / mu)
							} else {
								z += ei[e]
							}
						}
					}
					return worst + mu*math.Log(z)
				}
				gamma := ternaryMin(eval, 12)
				if gamma <= 1e-9 || eval(gamma) >= eval(0)-1e-15 {
					continue
				}
				for i := 0; i < nI; i++ {
					d := s.reqs[i].demands[k]
					if d == 0 {
						continue
					}
					li := loads[i]
					for _, e32 := range act[:nAct] {
						e := int(e32)
						li[e] += gamma * d * diff[e]
					}
				}
				for e := 0; e < nL; e++ {
					rk[e] = (1-gamma)*rk[e] + gamma*xDir[e]
				}
				// The accepted step moved loads only on active cells of
				// rows with demand; refresh their static view and exp cache
				// (at the current reference point) for the next blocks.
				for i := 0; i < nI; i++ {
					if s.reqs[i].demands[k] == 0 {
						continue
					}
					li, Wi, u0i, ei := loads[i], W[i], u0[i], expu[i]
					for _, e32 := range act[:nAct] {
						e := int(e32)
						u0i[e] = (li[e] + Wi[e]) / s.capac[e]
						ei[e] = math.Exp((u0i[e] - cachedWorst) / mu)
					}
				}
			}
		}
		rSweepSp.End()

		// ---- p block sweep ----
		pSweepSp := epochSp.Child("p-sweep")
		if incSweep {
			// Incremental evaluation of the reference sweep in the else
			// branch. For block l a cell (i, e) is static when p_l(e) = 0
			// and e is off the oracle path: its mixed value x stays
			// exactly +0, and the insertion stats walked at x = 0
			// reproduce the buffer-order top-F sum — tops[e].worstArb —
			// bit for bit (l holds no positive entry, so the first F
			// non-l entries are the first F entries, summed in the same
			// order). Static utilizations and their exp terms are
			// therefore cached like the r sweep's, keyed on the current
			// reference point, and every eval computes math.Exp only at
			// the active cells plus cache refills; the z sum still adds
			// all cells in ascending order so its float association —
			// and the accepted plan — matches the reference exactly.
			u0 := s.ar.u0
			expu := s.ar.expu
			stamp := s.ar.stampE
			act := s.ar.active
			prevAct := s.ar.active2
			nPrev := 0
			fillU0P := func(i, lo, hi int) {
				li, u0i := loads[i], u0[i]
				F := arbF[i]
				for e := lo; e < hi; e++ {
					u0i[e] = (li[e] + s.tops[e].worstArb(F)) / s.capac[e]
				}
			}
			if s.pool.Inline() {
				for i := 0; i < nI; i++ {
					fillU0P(i, 0, nL)
				}
			} else {
				s.pool.ForEach(nI*nC, func(t int) {
					i := t / nC
					lo, hi := par.Chunk(nL, t%nC)
					fillU0P(i, lo, hi)
				})
			}
			cachedWorst := math.NaN()
			refill := func(worst float64) {
				fill := func(i, lo, hi int) {
					u0i, ei := u0[i], expu[i]
					for e := lo; e < hi; e++ {
						ei[e] = math.Exp((u0i[e] - worst) / mu)
					}
				}
				if s.pool.Inline() {
					for i := 0; i < nI; i++ {
						fill(i, 0, nL)
					}
				} else {
					s.pool.ForEach(nI*nC, func(t int) {
						i := t / nC
						lo, hi := par.Chunk(nL, t%nC)
						fill(i, lo, hi)
					})
				}
				cachedWorst = worst
			}
			for l := 0; l < nL; l++ {
				path := pPaths[l]
				if path == nil {
					continue
				}
				cl := s.capac[l]
				for e := range xDir {
					xDir[e] = 0
				}
				for _, id := range path {
					xDir[id] = cl
				}
				pl := s.P[l]
				// Active cells: the support of p_l plus the oracle path.
				// p_l(e) != 0 iff pcol[e][l] != 0 (pcol mirrors c_l·P
				// exactly in columns and the accept loop, and the values
				// never reach the subnormal range where the product or
				// quotient could flush to zero), so the contiguous P row
				// substitutes for a strided pcol scan.
				s.stampGen++
				gen := s.stampGen
				nAct := 0
				for e := 0; e < nL; e++ {
					if pl[e] != 0 {
						stamp[e] = gen
						act[nAct] = int32(e)
						nAct++
					}
				}
				for _, id := range path {
					if stamp[id] != gen {
						stamp[id] = gen
						act[nAct] = int32(id)
						nAct++
					}
				}
				// Insertion stats only where fresh evaluation happens.
				for i := 0; i < nI; i++ {
					F := arbF[i]
					sfi, afi := sFm1[i], aF[i]
					for _, e32 := range act[:nAct] {
						e := int(e32)
						sfi[e], afi[e] = s.tops[e].stats(int32(l), F)
					}
				}
				evalW := func(i, e int, x float64) float64 {
					if x > aF[i][e] {
						return sFm1[i][e] + x
					}
					return sFm1[i][e] + aF[i][e]
				}
				staticMax := 0.0
				for i := 0; i < nI; i++ {
					u0i := u0[i]
					for e := 0; e < nL; e++ {
						if stamp[e] != gen && u0i[e] > staticMax {
							staticMax = u0i[e]
						}
					}
				}
				eval := func(gamma float64) float64 {
					worst := staticMax
					for i := 0; i < nI; i++ {
						li := loads[i]
						for _, e32 := range act[:nAct] {
							e := int(e32)
							x := (1-gamma)*s.pcol[e][l] + gamma*xDir[e]
							u := (li[e] + evalW(i, e, x)) / s.capac[e]
							if u > worst {
								worst = u
							}
						}
					}
					if worst != cachedWorst {
						refill(worst)
					}
					var z float64
					for i := 0; i < nI; i++ {
						li, ei := loads[i], expu[i]
						for e := 0; e < nL; e++ {
							if stamp[e] == gen {
								x := (1-gamma)*s.pcol[e][l] + gamma*xDir[e]
								u := (li[e] + evalW(i, e, x)) / s.capac[e]
								z += math.Exp((u - worst) / mu)
							} else {
								z += ei[e]
							}
						}
					}
					return worst + mu*math.Log(z)
				}
				gamma := ternaryMin(eval, 12)
				if gamma <= 1e-9 || eval(gamma) >= eval(0)-1e-15 {
					continue
				}
				for _, e32 := range act[:nAct] {
					e := int(e32)
					old := s.pcol[e][l]
					nv := (1-gamma)*old + gamma*xDir[e]
					s.pcol[e][l] = nv
					pl[e] = nv / cl
					if s.topK > 0 && nv != old {
						s.tops[e].update(int32(l), nv, s.pcol[e], s.topK)
					}
				}
				// The reference refresh rewrites every W cell: active
				// cells take the insertion-stats value at the accepted x;
				// static cells collapse back to the buffer-order worstArb
				// sum. Only the previous accepted block's active cells can
				// hold insertion-order bits, so the rewrite touches
				// prevAct \ act plus act — every other cell already
				// stores worstArb of an unchanged top buffer.
				for i := 0; i < nI; i++ {
					F := arbF[i]
					Wi := W[i]
					for _, e32 := range prevAct[:nPrev] {
						e := int(e32)
						if stamp[e] != gen {
							Wi[e] = s.tops[e].worstArb(F)
						}
					}
					for _, e32 := range act[:nAct] {
						e := int(e32)
						Wi[e] = evalW(i, e, s.pcol[e][l])
					}
				}
				// Refresh the static view and exp cache at the cells the
				// accept moved (their top buffers changed), at the current
				// reference point.
				for i := 0; i < nI; i++ {
					F := arbF[i]
					li, u0i, ei := loads[i], u0[i], expu[i]
					for _, e32 := range act[:nAct] {
						e := int(e32)
						u0i[e] = (li[e] + s.tops[e].worstArb(F)) / s.capac[e]
						ei[e] = math.Exp((u0i[e] - cachedWorst) / mu)
					}
				}
				copy(prevAct[:nAct], act[:nAct])
				nPrev = nAct
			}
			pSweepSp.End()

			obj = trueObj()
			if obj < s.bestObj {
				s.snapshotBest(obj)
			}
			s.o.mlu.Set(obj)
			s.o.epochs.Inc()
			epochSp.SetFloat("mlu", obj)
			epochSp.SetFloat("step", gamma)
			epochSp.SetFloat("mu", mu)
			epochSp.End()
			continue
		}
		for l := 0; l < nL; l++ {
			path := pPaths[l]
			if path == nil {
				continue
			}
			cl := s.capac[l]
			for e := range xDir {
				xDir[e] = 0
			}
			for _, id := range path {
				xDir[id] = cl // direction in v-space: c_l × direction frac
			}
			pl := s.P[l]

			var evalW func(i, e int, x float64) float64
			switch {
			case allArb:
				// Insertion stats: top-(F-1) sum and F-th largest of the
				// column with entry l excluded; then the worst virtual
				// load as a function of x = c_l p_l(e) is
				// sFm1 + max(x, aF). The maintained colTop buffers answer
				// both in O(F) per cell instead of rescanning the column,
				// bit-identical to insertionStats (same selection order,
				// same summation order).
				fillStats := func(i, lo, hi int) {
					F := arbF[i]
					sfi, afi := sFm1[i], aF[i]
					for e := lo; e < hi; e++ {
						sfi[e], afi[e] = s.tops[e].stats(int32(l), F)
					}
				}
				if s.pool.Inline() {
					for i := 0; i < nI; i++ {
						fillStats(i, 0, nL)
					}
				} else {
					s.pool.ForEach(nI*nC, func(t int) {
						i := t / nC
						lo, hi := par.Chunk(nL, t%nC)
						fillStats(i, lo, hi)
					})
				}
				evalW = func(i, e int, x float64) float64 {
					if x > aF[i][e] {
						return sFm1[i][e] + x
					}
					return sFm1[i][e] + aF[i][e]
				}
			case allGrp1:
				// With K=1, the worst case is one SRLG plus one MLG: the
				// best group either avoids l entirely (sum precomputed) or
				// contains l and gains x.
				s.pool.ForEach(nI*nC, func(t int) {
					i := t / nC
					lo, hi := par.Chunk(nL, t%nC)
					groupStats(grp1[i].SRLGs, s.pcol, graph.LinkID(l), sS[i], mSl[i], lo, hi)
					groupStats(grp1[i].MLGs, s.pcol, graph.LinkID(l), sM[i], mMl[i], lo, hi)
				})
				evalW = func(i, e int, x float64) float64 {
					srlg := sS[i][e]
					if v := mSl[i][e] + x; v > srlg {
						srlg = v
					}
					if srlg < 0 {
						srlg = 0
					}
					mlg := sM[i][e]
					if v := mMl[i][e] + x; v > mlg {
						mlg = v
					}
					if mlg < 0 {
						mlg = 0
					}
					return srlg + mlg
				}
			default:
				evalW = func(i, e int, x float64) float64 {
					copy(scratchCol, s.pcol[e])
					scratchCol[l] = x
					return s.reqs[i].model.WorstLoad(scratchCol)
				}
			}

			eval := func(gamma float64) float64 {
				worst := 0.0
				for i := 0; i < nI; i++ {
					for e := 0; e < nL; e++ {
						x := (1-gamma)*s.pcol[e][l] + gamma*xDir[e]
						u := (loads[i][e] + evalW(i, e, x)) / s.capac[e]
						if u > worst {
							worst = u
						}
					}
				}
				var z float64
				for i := 0; i < nI; i++ {
					for e := 0; e < nL; e++ {
						x := (1-gamma)*s.pcol[e][l] + gamma*xDir[e]
						u := (loads[i][e] + evalW(i, e, x)) / s.capac[e]
						z += math.Exp((u - worst) / mu)
					}
				}
				return worst + mu*math.Log(z)
			}
			gamma := ternaryMin(eval, 12)
			if gamma <= 1e-9 || eval(gamma) >= eval(0)-1e-15 {
				continue
			}
			for e := 0; e < nL; e++ {
				old := s.pcol[e][l]
				nv := (1-gamma)*old + gamma*xDir[e]
				s.pcol[e][l] = nv
				pl[e] = nv / cl
				if s.topK > 0 && nv != old {
					s.tops[e].update(int32(l), nv, s.pcol[e], s.topK)
				}
			}
			// Refresh W from the accepted step. The fast-path evalW
			// closures only read precomputed stats; the generic fallback
			// evaluates WorstLoad on the updated column directly. Both are
			// pure per-cell reads, so the refresh is slot-parallel.
			if allArb || allGrp1 {
				s.pool.ForEach(nI*nC, func(t int) {
					i := t / nC
					lo, hi := par.Chunk(nL, t%nC)
					for e := lo; e < hi; e++ {
						W[i][e] = evalW(i, e, s.pcol[e][l])
					}
				})
			} else {
				recomputeW()
			}
		}

		pSweepSp.End()

		obj = trueObj()
		if obj < s.bestObj {
			s.snapshotBest(obj)
		}
		s.o.mlu.Set(obj)
		s.o.epochs.Inc()
		epochSp.SetFloat("mlu", obj)
		epochSp.SetFloat("step", gamma)
		epochSp.SetFloat("mu", mu)
		epochSp.End()
	}
	s.restoreBest()
}

// globalStep moves every commodity toward its oracle path simultaneously
// with one shared line-searched step on the smoothed objective. It mutates
// s.R, s.P and s.pcol (the caller refreshes loads and W) and returns the
// accepted step size (0 when the line search rejects the direction).
func (s *fwState) globalStep(loads [][]float64, rPaths, pPaths [][]graph.LinkID, mu float64) float64 {
	nL := s.g.NumLinks()
	nI := len(s.reqs)

	// Direction rows for r: a commodity without an oracle path keeps its
	// routing, so its direction row is R[k] itself; otherwise it is the
	// path's indicator in the dirR arena. rDirections grew the support
	// with the path, and an arena row is only ever written on its
	// support, so zeroing the support clears the whole row.
	dirR := s.ar.dirRows
	for k := range s.comms {
		if rPaths == nil || rPaths[k] == nil {
			dirR[k] = s.R[k]
			continue
		}
		row := s.ar.dirR[k]
		for _, e := range s.rSupp[k] {
			row[e] = 0
		}
		for _, id := range rPaths[k] {
			row[id] = 1
		}
		dirR[k] = row
	}
	// Direction columns for p.
	dirP := s.ar.dirP
	fillDirP := func(l int) {
		row := dirP[l]
		if pPaths[l] == nil {
			copy(row, s.P[l])
			return
		}
		for e := range row {
			row[e] = 0
		}
		for _, id := range pPaths[l] {
			row[id] = 1
		}
	}
	if s.pool.Inline() {
		for l := 0; l < nL; l++ {
			fillDirP(l)
		}
	} else {
		s.pool.ForEach(nL, fillDirP)
	}
	dirLoads := s.baseLoads(dirR, s.ar.dirLoads)
	pcolDir := s.columns(dirP, s.ar.pcolDir)

	// Each utilization cell mixes a full p-column (O(links) WorstLoad), so
	// the fill dominates the line search; it is slot-parallel with a
	// per-worker mixing buffer. The max and the exp sum stay serial over
	// the slot order, keeping the float association fixed.
	us := s.ar.us
	eval := func(gamma float64) float64 {
		if s.pool.Inline() {
			col := s.getBuf()
			for t := 0; t < nI*nL; t++ {
				i, e := t/nL, t%nL
				a, b := s.pcol[e], pcolDir[e]
				for l := 0; l < nL; l++ {
					col[l] = (1-gamma)*a[l] + gamma*b[l]
				}
				bl := (1-gamma)*loads[i][e] + gamma*dirLoads[i][e]
				us[t] = (bl + s.reqs[i].model.WorstLoad(col)) / s.capac[e]
			}
			s.putBuf(col)
		} else {
			par.ForEachChunkScratchFree(s.pool, nI*nL, s.getBuf, func(lo, hi int, col []float64) {
				for t := lo; t < hi; t++ {
					i, e := t/nL, t%nL
					a, b := s.pcol[e], pcolDir[e]
					for l := 0; l < nL; l++ {
						col[l] = (1-gamma)*a[l] + gamma*b[l]
					}
					bl := (1-gamma)*loads[i][e] + gamma*dirLoads[i][e]
					us[t] = (bl + s.reqs[i].model.WorstLoad(col)) / s.capac[e]
				}
			}, s.putBuf)
		}
		worst := 0.0
		for _, u := range us {
			if u > worst {
				worst = u
			}
		}
		var z float64
		for _, u := range us {
			z += math.Exp((u - worst) / mu)
		}
		return worst + mu*math.Log(z)
	}
	gamma := ternaryMin(eval, 14)
	if gamma <= 1e-9 || eval(gamma) >= eval(0)-1e-15 {
		return 0
	}
	// Off the support both rows are +0, where the update keeps +0.
	for k, rk := range s.R {
		dk := dirR[k]
		for _, e := range s.rSupp[k] {
			rk[e] = (1-gamma)*rk[e] + gamma*dk[e]
		}
	}
	s.pool.ForEach(nL, func(l int) {
		pl, dl := s.P[l], dirP[l]
		for e := 0; e < nL; e++ {
			pl[e] = (1-gamma)*pl[e] + gamma*dl[e]
		}
	})
	s.pcol = s.columns(s.P, s.pcol)
	return gamma
}

// pDirections computes the oracle path per protected link from the active
// sets of the current iterate: a link e costs q weight only where l's
// virtual demand is part of the worst case at e. Cost accumulation is
// split by link column e — every cell costP[·][e] belongs to one worker
// and sums requirements in ascending order — and the per-link SPF fan-out
// is slot-parallel, with an ActiveSet scratch per worker. All buffers come
// from the arena: costP rows are zeroed up front, the kernel scratch and
// y rows recycle through pools, and paths append into retained storage.
//
// Under an incremental SPF mode the per-link trees persist across epochs:
// the gradient rows are sparse over a constant 1e-12 floor (a cell is
// nonzero only where the link's virtual demand sits in some worst case),
// so between epochs only the union of the old and new nonzero patterns
// can change. Each link's DynTree is repaired from exactly those
// candidate cells, with costP[l][e] + 1e-12 — the same float add the flat
// path bakes in place — as the candidate cost, which makes the repaired
// tree and the produced path bit-identical to the flat sweep.
func (s *fwState) pDirections(q [][]float64) [][]graph.LinkID {
	nL := s.g.NumLinks()
	nI := len(s.reqs)
	costP := s.ar.costP
	incremental := s.spfMode != spf.ModeFlat
	paths := s.ar.pPaths

	zeroRows := func(lo, hi int) {
		for l := lo; l < hi; l++ {
			if incremental {
				// Only pattern cells are ever nonzero; clear just those.
				row := costP[l]
				for _, e := range s.ar.pPat[l] {
					row[e] = 0
				}
				s.ar.pPatNew[l] = s.ar.pPatNew[l][:0]
				continue
			}
			row := costP[l]
			for e := range row {
				row[e] = 0
			}
		}
	}
	// accumulate fills chunk c (columns [lo, hi)). In incremental mode the
	// first contribution to a cell records the (l, e) pair in the chunk's
	// pair buffer; chunks partition e, so each cell has exactly one owner
	// and the per-chunk buffers concatenate to the full pattern in
	// ascending-e order.
	accumulate := func(c, lo, hi int, y []float64) {
		var pairs []int32
		if incremental {
			pairs = s.ar.patPairs[c][:0]
		}
		for e := lo; e < hi; e++ {
			for i := 0; i < nI; i++ {
				if q[i][e] == 0 {
					continue
				}
				s.reqs[i].model.ActiveSet(s.pcol[e], y)
				w := q[i][e] / s.capac[e]
				for l := 0; l < nL; l++ {
					if y[l] > 0 {
						if incremental && costP[l][e] == 0 {
							pairs = append(pairs, int32(l), int32(e))
						}
						costP[l][e] += w * y[l]
					}
				}
			}
		}
		if incremental {
			s.ar.patPairs[c] = pairs
		}
	}
	sweep := func(l int) {
		link := s.g.Link(graph.LinkID(l))
		row := costP[l]
		var next []int32
		if incremental {
			tree := &s.pTrees[l]
			if !tree.Ready() {
				buf := s.getBuf()
				for e := 0; e < nL; e++ {
					buf[e] = row[e] + 1e-12
				}
				tree.Full(buf)
				s.putBuf(buf)
				s.o.fallbacks.Inc()
			} else {
				// Candidates: old ∪ new nonzero cells, merged in ascending
				// link order (both lists are e-sorted). Cells outside both
				// patterns cost exactly 1e-12 before and after.
				ids, vals := s.ar.pIDs[l][:0], s.ar.pVals[l][:0]
				oldP, newP := s.ar.pPat[l], s.ar.pPatNew[l]
				oi, ni := 0, 0
				for oi < len(oldP) || ni < len(newP) {
					var e int32
					switch {
					case oi == len(oldP):
						e = newP[ni]
						ni++
					case ni == len(newP):
						e = oldP[oi]
						oi++
					case oldP[oi] < newP[ni]:
						e = oldP[oi]
						oi++
					case oldP[oi] > newP[ni]:
						e = newP[ni]
						ni++
					default:
						e = oldP[oi]
						oi, ni = oi+1, ni+1
					}
					ids = append(ids, e)
					vals = append(vals, row[e]+1e-12)
				}
				s.ar.pIDs[l], s.ar.pVals[l] = ids, vals
				kind, frac := tree.Update(ids, vals, 0.25)
				s.o.noteUpdate(kind, frac)
			}
			s.o.spf.Inc()
			next = tree.Next()
		} else {
			// Bake the tie-breaking floor into the row: the reference cost
			// closure evaluated costP[l][id] + 1e-12 per relaxation, the
			// same float add performed here once per link.
			for id := 0; id < nL; id++ {
				row[id] = row[id] + 1e-12
			}
			sc := s.spfPool.Get()
			spf.SPFTo(s.csr, link.Dst, row, nil, sc)
			s.o.spf.Inc()
			next = sc.Next
			defer s.spfPool.Put(sc)
		}
		p := spf.PathFromNext(s.csr, link.Src, next, s.ar.pPathBuf[l][:0])
		if p != nil {
			s.ar.pPathBuf[l] = p
		}
		paths[l] = p
	}
	if s.pool.Inline() {
		zeroRows(0, nL)
		if s.ar.patPairs == nil {
			s.ar.patPairs = make([][]int32, 1)
		}
		y := s.getBuf()
		accumulate(0, 0, nL, y)
		s.putBuf(y)
		s.mergePatterns(1)
		for l := 0; l < nL; l++ {
			sweep(l)
		}
		s.swapPatterns()
		return paths
	}
	s.pool.ForEachChunk(nL, zeroRows)
	nC := par.NumChunks(nL)
	if s.ar.patPairs == nil || len(s.ar.patPairs) < nC {
		s.ar.patPairs = make([][]int32, nC)
	}
	s.pool.ForEach(nC, func(c int) {
		lo, hi := par.Chunk(nL, c)
		y := s.getBuf()
		accumulate(c, lo, hi, y)
		s.putBuf(y)
	})
	s.mergePatterns(nC)
	s.pool.ForEach(nL, sweep)
	s.swapPatterns()
	return paths
}

// mergePatterns scatters the per-chunk (l, e) pair buffers into per-link
// pattern lists. Chunks are walked in ascending order and each buffer is
// internally e-sorted, so every pPatNew[l] comes out e-sorted.
func (s *fwState) mergePatterns(nC int) {
	if s.spfMode == spf.ModeFlat {
		return
	}
	for c := 0; c < nC; c++ {
		pairs := s.ar.patPairs[c]
		for j := 0; j+1 < len(pairs); j += 2 {
			l, e := pairs[j], pairs[j+1]
			s.ar.pPatNew[l] = append(s.ar.pPatNew[l], e)
		}
	}
}

// swapPatterns promotes this epoch's nonzero patterns to "previous" for
// the next epoch's delta computation.
func (s *fwState) swapPatterns() {
	if s.spfMode == spf.ModeFlat {
		return
	}
	s.ar.pPat, s.ar.pPatNew = s.ar.pPatNew, s.ar.pPat
}

// ternaryMin minimizes a convex function on [0,1] by ternary search.
func ternaryMin(f func(float64) float64, iters int) float64 {
	lo, hi := 0.0, 1.0
	for t := 0; t < iters; t++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if f(m1) <= f(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	return (lo + hi) / 2
}

// rDirections computes the oracle path per OD commodity under the current
// gradient weights, honoring the delay envelope, and adds each path to its
// commodity's row support (the global step and the r sweep both move mass
// only onto these paths). With one requirement the
// cost is shared and grouped by destination; with several the costs are
// demand-weighted per commodity.
func (s *fwState) rDirections(q [][]float64) [][]graph.LinkID {
	nL := s.g.NumLinks()
	paths := s.ar.rPaths
	if len(s.reqs) == 1 {
		cost := s.ar.rCost
		for e := 0; e < nL; e++ {
			cost[e] = q[0][e]/s.capac[e] + 1e-12
		}
		if s.ar.dsts == nil {
			// The destination grouping depends only on the commodity set;
			// build it once per solve.
			groups := map[graph.NodeID][]int{}
			for k := range s.comms {
				groups[s.comms[k].Dst] = append(groups[s.comms[k].Dst], k)
			}
			dsts := make([]graph.NodeID, 0, len(groups))
			for dst := range groups {
				dsts = append(dsts, dst)
			}
			sort.Slice(dsts, func(a, b int) bool { return dsts[a] < dsts[b] })
			s.ar.dsts = dsts
			s.ar.dstComms = make([][]int, len(dsts))
			for di, dst := range dsts {
				s.ar.dstComms[di] = groups[dst]
			}
		}
		// One reverse SPF per destination, fanned out across workers.
		// Commodity sets of distinct destinations are disjoint, so every
		// paths[k] slot has exactly one writer; the sorted destination
		// list only fixes the task indexing.
		sweep := func(di int) {
			sc := s.spfPool.Get()
			spf.SPFTo(s.csr, s.ar.dsts[di], cost, nil, sc)
			s.o.spf.Inc()
			for _, k := range s.ar.dstComms[di] {
				p := spf.PathFromNext(s.csr, s.comms[k].Src, sc.Next, s.ar.rPathBuf[k][:0])
				if p != nil {
					s.ar.rPathBuf[k] = p
				}
				paths[k] = s.checkedPath(k, p, cost)
				s.growSupport(k, paths[k])
			}
			s.spfPool.Put(sc)
		}
		if s.pool.Inline() {
			for di := range s.ar.dsts {
				sweep(di)
			}
		} else {
			s.pool.ForEach(len(s.ar.dsts), sweep)
		}
		return paths
	}
	// Demand-weighted per-commodity costs: one SPF per commodity, with a
	// per-worker cost buffer (fully overwritten for every item).
	sweep := func(k int, cost []float64) {
		for e := 0; e < nL; e++ {
			var w float64
			for i := range s.reqs {
				if d := s.reqs[i].demands[k]; d > 0 {
					w += q[i][e] * d
				}
			}
			cost[e] = w/s.capac[e] + 1e-12
		}
		sc := s.spfPool.Get()
		spf.SPFTo(s.csr, s.comms[k].Dst, cost, nil, sc)
		s.o.spf.Inc()
		p := spf.PathFromNext(s.csr, s.comms[k].Src, sc.Next, s.ar.rPathBuf[k][:0])
		if p != nil {
			s.ar.rPathBuf[k] = p
		}
		paths[k] = s.checkedPath(k, p, cost)
		s.growSupport(k, paths[k])
		s.spfPool.Put(sc)
	}
	if s.pool.Inline() {
		cost := s.getBuf()
		for k := range s.comms {
			sweep(k, cost)
		}
		s.putBuf(cost)
		return paths
	}
	par.ForEachScratchFree(s.pool, len(s.comms), s.getBuf, sweep, s.putBuf)
	return paths
}

// checkedPath applies the delay envelope to an oracle path, substituting a
// delay-bounded path when the unconstrained one is too slow. cost is the
// per-link cost row the oracle ran with.
func (s *fwState) checkedPath(k int, path []graph.LinkID, cost []float64) []graph.LinkID {
	if path == nil {
		return nil
	}
	if s.delayCap != nil && pathDelay(s.g, path) > s.delayCap[k]+1e-9 {
		return s.delayBoundedPath(k, cost, s.delayCap[k])
	}
	return path
}

// getPathBuf and putPathBuf recycle path scratch for delayBoundedPath's
// probe paths (scratch contents never affect results, so recycling order
// is immaterial to determinism).
func (s *fwState) getPathBuf() []graph.LinkID {
	s.pbMu.Lock()
	defer s.pbMu.Unlock()
	if n := len(s.pbFree); n > 0 {
		b := s.pbFree[n-1]
		s.pbFree = s.pbFree[:n-1]
		return b
	}
	return make([]graph.LinkID, 0, 16)
}

func (s *fwState) putPathBuf(b []graph.LinkID) {
	s.pbMu.Lock()
	s.pbFree = append(s.pbFree, b)
	s.pbMu.Unlock()
}

// snapshotBest records the current iterate as the best seen.
func (s *fwState) snapshotBest(obj float64) {
	s.bestObj = obj
	if s.bestR == nil {
		s.bestR = make([][]float64, len(s.R))
		for k := range s.R {
			s.bestR[k] = make([]float64, len(s.R[k]))
		}
		s.bestP = make([][]float64, len(s.P))
		for l := range s.P {
			s.bestP[l] = make([]float64, len(s.P[l]))
		}
	}
	// The support only grows, so bestR is +0 wherever R's support has
	// never reached: copying the support copies the whole row.
	for k, sk := range s.support() {
		rk, bk := s.R[k], s.bestR[k]
		for _, e := range sk {
			bk[e] = rk[e]
		}
	}
	for l := range s.P {
		copy(s.bestP[l], s.P[l])
	}
}

// restoreBest rolls the iterate back to the best recorded snapshot.
func (s *fwState) restoreBest() {
	if s.bestR == nil {
		return
	}
	// The current support covers the snapshot's, and off it both rows
	// are +0.
	for k, sk := range s.rSupp {
		rk, bk := s.R[k], s.bestR[k]
		for _, e := range sk {
			rk[e] = bk[e]
		}
	}
	for l := range s.P {
		copy(s.P[l], s.bestP[l])
	}
}
func pathDelay(g *graph.Graph, path []graph.LinkID) float64 {
	var d float64
	for _, id := range path {
		d += g.Link(id).Delay
	}
	return d
}

// delayBoundedPath finds a low-cost path for commodity k whose propagation
// delay does not exceed bound, via Lagrangian bisection on cost + θ·delay.
// Falls back to the minimum-delay path. Every probe runs on the
// allocation-free reverse kernel with pooled scratch (the former
// closure-based spf.ShortestPath calls allocated a visit set and a fresh
// path per probe); the returned path lives in the commodity's retained
// buffer, so warm calls allocate nothing.
func (s *fwState) delayBoundedPath(k int, cost []float64, bound float64) []graph.LinkID {
	src, dst := s.comms[k].Src, s.comms[k].Dst
	nL := s.g.NumLinks()
	delay := s.ar.delay
	sc := s.spfPool.Get()
	combined := s.getBuf()
	bestBuf := s.getPathBuf()
	candBuf := s.getPathBuf()

	s.o.spf.Inc()
	spf.SPFTo(s.csr, dst, delay, nil, sc)
	best := spf.PathFromNext(s.csr, src, sc.Next, bestBuf[:0])
	if best != nil {
		bestBuf = best
	}
	if best != nil && pathDelay(s.g, best) <= bound+1e-9 {
		lo, hi := 0.0, 1.0
		// Grow hi until the combined path is delay-feasible.
		for t := 0; t < 12; t++ {
			theta := (lo + hi) / 2
			for e := 0; e < nL; e++ {
				combined[e] = cost[e] + theta*delay[e]
			}
			s.o.spf.Inc()
			spf.SPFTo(s.csr, dst, combined, nil, sc)
			p := spf.PathFromNext(s.csr, src, sc.Next, candBuf[:0])
			if p == nil {
				break
			}
			candBuf = p
			if pathDelay(s.g, p) <= bound+1e-9 {
				bestBuf, candBuf = candBuf, bestBuf
				best = bestBuf
				hi = theta
			} else {
				lo = theta
				if t == 0 {
					hi = hi * 2
				}
			}
		}
	}
	var out []graph.LinkID
	if best != nil {
		out = append(s.ar.dPathBuf[k][:0], best...)
		s.ar.dPathBuf[k] = out
	}
	s.putPathBuf(candBuf)
	s.putPathBuf(bestBuf)
	s.putBuf(combined)
	s.spfPool.Put(sc)
	return out
}

// groupStats fills, for every link e in [lo, hi), best[e] = the largest
// positive group sum over columns pcol[e] treating index skip as absent
// among groups NOT containing skip (0 when none), and withSkip[e] = the
// largest sum among groups containing skip with skip's own entry removed
// (negative infinity when no group contains skip). Each cell depends only
// on its own column, so disjoint ranges can be filled concurrently.
func groupStats(groups [][]graph.LinkID, pcol [][]float64, skip graph.LinkID, best, withSkip []float64, lo, hi int) {
	negInf := math.Inf(-1)
	for e := lo; e < hi; e++ {
		best[e] = 0
		withSkip[e] = negInf
	}
	for _, grp := range groups {
		contains := false
		for _, l := range grp {
			if l == skip {
				contains = true
				break
			}
		}
		for e := lo; e < hi; e++ {
			col := pcol[e]
			var sum float64
			for _, l := range grp {
				if l == skip || int(l) >= len(col) {
					continue
				}
				if v := col[l]; v > 0 {
					sum += v
				}
			}
			if contains {
				if sum > withSkip[e] {
					withSkip[e] = sum
				}
			} else if sum > best[e] {
				best[e] = sum
			}
		}
	}
}

// sanitizeProt removes solver-noise allocations from the protection
// routing: each p_l is decomposed into paths, paths below a small
// fraction are dropped, and the remainder is renormalized. Iterative
// solutions accumulate many near-zero fractions; left in place they make
// the online rescaling ξ = p_e/(1-p_e(e)) amplify noise unboundedly when
// p_e(e) approaches 1 under cascaded failures. Dropping sub-threshold
// paths keeps p a valid routing ([R1]-[R4] are preserved by convex
// combinations of paths) while bounding the noise.
func sanitizeProt(g *graph.Graph, P [][]float64) {
	const (
		keepCoverage = 0.995 // retain paths until this much mass is kept
		alwaysKeep   = 0.005 // paths at least this large are never dropped
	)
	nL := g.NumLinks()
	f := routing.NewFlow(g, routing.LinkCommodities(g))
	for l := 0; l < nL; l++ {
		copy(f.Frac[l], P[l])
	}
	f.RemoveLoops()
	for l := 0; l < nL; l++ {
		paths := f.Decompose(l, 256)
		sort.Slice(paths, func(i, j int) bool { return paths[i].Frac > paths[j].Frac })
		var grand float64
		for _, p := range paths {
			grand += p.Frac
		}
		if grand <= 0 {
			continue
		}
		var kept []routing.Path
		var total float64
		for _, p := range paths {
			if total >= keepCoverage*grand && p.Frac < alwaysKeep {
				break
			}
			kept = append(kept, p)
			total += p.Frac
		}
		row := P[l]
		for e := range row {
			row[e] = 0
		}
		for _, p := range kept {
			w := p.Frac / total
			for _, id := range p.Links {
				row[id] += w
			}
		}
	}

	// A min-max optimum may leave a link effectively unprotected
	// (p_l(l) ≈ 1) when protecting it cannot improve the bottleneck —
	// rational for the objective, but online reconfiguration would then
	// drop the link's real traffic. Force a functional detour wherever
	// one exists: move the self-allocated mass onto the shortest path
	// around the link. This can only raise the reported worst-case MLU
	// (recomputed by the caller), never break validity ([R2] mass is
	// conserved, the detour satisfies [R1]/[R3]).
	for l := 0; l < nL; l++ {
		lid := graph.LinkID(l)
		self := P[l][l]
		if self < 0.999 {
			continue
		}
		link := g.Link(lid)
		avoid := func(id graph.LinkID) bool { return id != lid }
		path := spf.ShortestPath(g, link.Src, link.Dst, avoid, spf.WeightCost(g))
		if path == nil {
			continue // a true bridge: nothing can protect it
		}
		P[l][l] = 0
		for _, id := range path {
			P[l][id] += self
		}
	}
}
