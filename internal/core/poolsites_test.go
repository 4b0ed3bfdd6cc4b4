package core

import (
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestFWPoolLoopsPerEpoch pins the solver's three parallel sites: per
// epoch the pool runs one loop per global-step line-search evaluation
// (two per ternary round plus the two accept checks) and one per SPF
// direction sweep (protection links, then the base routing's
// destinations). Every other pass of the epoch is serial, so a fine-
// grained per-link or per-chunk pool loop anywhere in the sweeps breaks
// the bound. The scheduler gets two slots so a wide pool really runs
// its loops on workers.
func TestFWPoolLoopsPerEpoch(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)

	g := topo.Abilene()
	d := traffic.Gravity(g, 0.1*g.TotalCapacity(), 5)
	for _, c := range []struct {
		name  string
		cfg   Config
		sweep int64 // direction sweeps per epoch
	}{
		{"joint", Config{Model: ArbitraryFailures{F: 1}, Iterations: 60}, 2},
		{"pinned-base", Config{Model: ArbitraryFailures{F: 1}, Iterations: 60, PenaltyEnvelope: 1.1}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := c.cfg
			cfg.Workers, cfg.Obs = 2, reg
			if _, err := Precompute(g, d, cfg); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			epochs := snap.Counters["fw.epochs"]
			loops := snap.Gauges["fw.pool_loops"]
			if epochs == 0 || loops == 0 {
				t.Fatalf("epochs = %d, pool loops = %d: the solver never ran its parallel sites", epochs, loops)
			}
			perEpoch := int64(2*globalStepSearchIters+2) + c.sweep
			if loops > epochs*perEpoch {
				t.Fatalf("%d pool loops over %d epochs, want at most %d per epoch", loops, epochs, perEpoch)
			}
		})
	}
}
