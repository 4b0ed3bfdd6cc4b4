package traffic

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// Text traffic-matrix format, one directive per line ('#' comments):
//
//	demand <src> <dst> <mbps>
//
// Node names are resolved through the caller-provided lookup (usually
// graph.NodeByName). ParseMatrix accepts exactly what FormatMatrix
// writes.

// ParseMatrix reads a traffic matrix for an n-node network.
func ParseMatrix(r io.Reader, n int, lookup func(string) (graph.NodeID, bool)) (*Matrix, error) {
	m := NewMatrix(n)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] != "demand" || len(fields) != 4 {
			return nil, fmt.Errorf("traffic: line %d: want \"demand <src> <dst> <mbps>\"", lineNo)
		}
		a, ok1 := lookup(fields[1])
		b, ok2 := lookup(fields[2])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("traffic: line %d: unknown node", lineNo)
		}
		if a < 0 || int(a) >= n || b < 0 || int(b) >= n {
			return nil, fmt.Errorf("traffic: line %d: node id out of range", lineNo)
		}
		if a == b {
			return nil, fmt.Errorf("traffic: line %d: demand from %s to itself", lineNo, fields[1])
		}
		// "v < 0" is false for NaN, and an Inf demand poisons every load
		// sum downstream — both must be rejected here.
		v, err := strconv.ParseFloat(fields[3], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("traffic: line %d: bad volume %q", lineNo, fields[3])
		}
		sum := m.At(a, b) + v
		if math.IsInf(sum, 0) {
			return nil, fmt.Errorf("traffic: line %d: demand overflow", lineNo)
		}
		m.Set(a, b, sum)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	return m, nil
}

// FormatMatrix writes m in the text format, naming nodes through name.
func FormatMatrix(w io.Writer, m *Matrix, name func(graph.NodeID) string) error {
	var outerErr error
	m.Pairs(func(a, b graph.NodeID, v float64) {
		if outerErr != nil {
			return
		}
		_, outerErr = fmt.Fprintf(w, "demand %s %s %g\n", name(a), name(b), v)
	})
	return outerErr
}
