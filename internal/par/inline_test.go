package par

import (
	"math"
	"runtime"
	"testing"
)

// withGOMAXPROCS runs fn with the scheduler clamped to n slots, restoring
// the previous setting afterwards.
func withGOMAXPROCS(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// TestInlineSpawnsNoWorkers: on a single-slot runtime even a wide pool
// must run every index-addressed loop on the calling goroutine — the
// spawned-worker counter stays flat across ForEach and the scratch loops.
func TestInlineSpawnsNoWorkers(t *testing.T) {
	withGOMAXPROCS(t, 1, func() {
		p := New(8)
		before := p.SpawnedWorkers()

		const n = 1000
		out := make([]float64, n)
		p.ForEach(n, func(i int) { out[i] = float64(i) * 1.5 })
		ForEachScratch(p, n,
			func() []float64 { return make([]float64, 1) },
			func(i int, s []float64) { s[0] = out[i]; out[i] = s[0] + 1 })
		ForEachScratchFree(p, n,
			func() []float64 { return make([]float64, 4) },
			func(i int, s []float64) { s[0] = out[i] },
			func(s []float64) {})

		if d := p.SpawnedWorkers() - before; d != 0 {
			t.Fatalf("inline execution spawned %d workers, want 0", d)
		}
	})
}

// TestInlinePooledIdentical: the same loops on a serial pool, a wide pool
// clamped to one slot and a genuinely concurrent pool must write
// bit-identical slots, and a serial index-order fold over those slots
// must agree bit for bit — the pattern the Frank–Wolfe line search uses.
func TestInlinePooledIdentical(t *testing.T) {
	const n = 12345
	vals := make([]float64, n)
	for i := range vals {
		// Values with wildly different magnitudes make the fold order
		// observable in the low bits.
		vals[i] = math.Sin(float64(i)) * math.Pow(10, float64(i%17)-8)
	}
	// run fills one slot per index with a per-worker mixing buffer and
	// folds the slots serially in index order.
	run := func(p *Pool) ([]float64, float64) {
		out := make([]float64, n)
		ForEachScratchFree(p, n,
			func() []float64 { return make([]float64, 3) },
			func(i int, buf []float64) {
				buf[0], buf[1], buf[2] = vals[i], vals[(i+1)%n], vals[(i+2)%n]
				out[i] = buf[0]*3 + buf[1] - buf[2]
			},
			func([]float64) {})
		sum := 0.0
		for _, v := range out {
			sum += v
		}
		return out, sum
	}
	check := func(label string, got []float64, gotSum float64, want []float64, wantSum float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: slot %d = %x, serial = %x", label, i, got[i], want[i])
			}
		}
		if math.Float64bits(gotSum) != math.Float64bits(wantSum) {
			t.Fatalf("%s: fold = %x, serial = %x", label, gotSum, wantSum)
		}
	}

	want, wantSum := run(Serial)
	withGOMAXPROCS(t, 1, func() {
		got, sum := run(New(8))
		check("inline wide pool", got, sum, want, wantSum)
	})
	// With scheduling slots available the pooled path must still agree
	// bit for bit: index-owned slots plus a serial fold pin it.
	withGOMAXPROCS(t, 4, func() {
		p := New(8)
		for trial := 0; trial < 5; trial++ {
			got, sum := run(p)
			check("pooled", got, sum, want, wantSum)
		}
		if p.SpawnedWorkers() == 0 {
			t.Fatal("pooled loop with 4 slots should have spawned workers")
		}

		outS := make([]float64, n)
		outP := make([]float64, n)
		Serial.ForEach(n, func(i int) { outS[i] = vals[i] * 3 })
		p.ForEach(n, func(i int) { outP[i] = vals[i] * 3 })
		for i := range outS {
			if outS[i] != outP[i] {
				t.Fatalf("ForEach diverged at %d", i)
			}
		}
	})
}
