package main

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/traffic"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// timed runs fn and returns its wall time in seconds. Callers timing a
// large allocating operation run runtime.GC() first, so every sample
// starts from a collected heap.
func timed(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB; 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTicks reads the machine-wide CPU time from /proc/stat, in clock
// ticks: the hypervisor's steal and the total of user, nice, system,
// idle, iowait, irq, softirq and steal. ok is false where /proc is
// unavailable.
func cpuTicks() (steal, total int64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, field := range f[1:9] {
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// machineRecord stamps a result with what it was measured on.
func machineRecord() map[string]any {
	return map[string]any{
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

var errRoundTrip = errors.New("codec: decoded plan re-encodes to different bytes")

// digest is the FNV-64a content digest r3d serves as X-R3-Digest.
func digest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// demandJitter bounds the seed's per-OD perturbation of the base matrix.
const demandJitter = 0.1

// seededDemand is a workload's traffic: the gravity matrix of base seed 1
// at frac of the topology's capacity, each OD demand scaled by a factor
// drawn from [1-demandJitter, 1+demandJitter] with seed, and the total
// restored. Reseeding the whole gravity matrix changed the work of a plan
// build by up to 1.8x between seeds; a bounded perturbation keeps every
// seed's inputs distinct while runs on different seeds do comparable work.
func seededDemand(g *graph.Graph, frac float64, seed int64) *traffic.Matrix {
	total := frac * g.TotalCapacity()
	base := traffic.Gravity(g, total, 1)
	rng := rand.New(rand.NewSource(seed))
	m := traffic.NewMatrix(base.N)
	base.Pairs(func(a, c graph.NodeID, v float64) {
		m.Set(a, c, v*(1+demandJitter*(2*rng.Float64()-1)))
	})
	return m.Scale(total / m.Total())
}
