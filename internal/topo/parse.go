package topo

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// Text topology format, one directive per line ('#' starts a comment):
//
//	topology <name>
//	node <name>
//	link <a> <b> <capacity-mbps> <delay-ms> [igp-weight]   # adds a duplex pair
//	srlg <a>,<b> [<c>,<d> ...]                              # shared-risk group of duplex links
//	mlg  <a>,<b> [<c>,<d> ...]                              # maintenance group
//
// Node names may not contain whitespace or ','. Links referenced by
// srlg/mlg must have been declared. Parse accepts exactly what Format
// writes.

// Parse reads a topology in the text format.
func Parse(r io.Reader) (*graph.Graph, error) {
	g := graph.New("imported")
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
		switch fields[0] {
		case "topology":
			if len(fields) != 2 {
				return nil, fmt.Errorf("topo: line %d: topology wants 1 argument", lineNo)
			}
			g.Name = fields[1]
		case "node":
			if len(fields) != 2 {
				return nil, fmt.Errorf("topo: line %d: node wants 1 argument", lineNo)
			}
			if strings.Contains(fields[1], ",") {
				return nil, fmt.Errorf("topo: line %d: node name %q may not contain ','", lineNo, fields[1])
			}
			g.AddNode(fields[1])
		case "link":
			if len(fields) < 5 || len(fields) > 6 {
				return nil, fmt.Errorf("topo: line %d: link wants <a> <b> <cap> <delay> [weight]", lineNo)
			}
			a, ok1 := g.NodeByName(fields[1])
			b, ok2 := g.NodeByName(fields[2])
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("topo: line %d: link references undeclared node", lineNo)
			}
			if a == b {
				return nil, fmt.Errorf("topo: line %d: link from %s to itself", lineNo, fields[1])
			}
			// NaN slips through "<= 0" comparisons (every comparison with
			// NaN is false) and Inf capacities break load arithmetic, so
			// demand finite values explicitly.
			capacity, err1 := strconv.ParseFloat(fields[3], 64)
			delay, err2 := strconv.ParseFloat(fields[4], 64)
			if err1 != nil || err2 != nil || !isFinite(capacity) || !isFinite(delay) || capacity <= 0 || delay <= 0 {
				return nil, fmt.Errorf("topo: line %d: bad capacity/delay", lineNo)
			}
			weight := 1.0
			if len(fields) == 6 {
				w, err := strconv.ParseFloat(fields[5], 64)
				if err != nil || !isFinite(w) || w <= 0 {
					return nil, fmt.Errorf("topo: line %d: bad weight", lineNo)
				}
				weight = w
			}
			if _, dup := g.FindLink(a, b); dup {
				return nil, fmt.Errorf("topo: line %d: duplicate link %s-%s", lineNo, fields[1], fields[2])
			}
			g.AddDuplex(a, b, capacity, delay, weight)
		case "srlg", "mlg":
			if len(fields) < 2 {
				return nil, fmt.Errorf("topo: line %d: %s wants at least one a-b pair", lineNo, fields[0])
			}
			var ids []graph.LinkID
			for _, pair := range fields[1:] {
				ab, ba, err := lookupDuplex(g, pair)
				if err != nil {
					return nil, fmt.Errorf("topo: line %d: %v", lineNo, err)
				}
				ids = append(ids, ab, ba)
			}
			if fields[0] == "srlg" {
				g.AddSRLG(ids...)
			} else {
				g.AddMLG(ids...)
			}
		default:
			return nil, fmt.Errorf("topo: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topo: %w", err)
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("topo: no nodes declared")
	}
	return g, nil
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

func lookupDuplex(g *graph.Graph, pair string) (graph.LinkID, graph.LinkID, error) {
	parts := strings.SplitN(pair, ",", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad link pair %q (want a,b)", pair)
	}
	a, ok1 := g.NodeByName(parts[0])
	b, ok2 := g.NodeByName(parts[1])
	if !ok1 || !ok2 {
		return 0, 0, fmt.Errorf("pair %q references undeclared node", pair)
	}
	ab, ok := g.FindLink(a, b)
	if !ok {
		return 0, 0, fmt.Errorf("pair %q: no such link", pair)
	}
	rev := g.Link(ab).Reverse
	if rev < 0 {
		return 0, 0, fmt.Errorf("pair %q: link is simplex", pair)
	}
	return ab, rev, nil
}

// Format writes g in the text format that Parse reads. Only duplex links
// are supported (every built-in topology qualifies).
func Format(w io.Writer, g *graph.Graph) error {
	if _, err := fmt.Fprintf(w, "topology %s\n", g.Name); err != nil {
		return err
	}
	for n := 0; n < g.NumNodes(); n++ {
		if _, err := fmt.Fprintf(w, "node %s\n", g.Node(graph.NodeID(n))); err != nil {
			return err
		}
	}
	seen := make([]bool, g.NumLinks())
	for _, l := range g.Links() {
		if seen[l.ID] {
			continue
		}
		if l.Reverse < 0 {
			return fmt.Errorf("topo: link %d is simplex; format requires duplex links", l.ID)
		}
		seen[l.ID] = true
		seen[l.Reverse] = true
		if _, err := fmt.Fprintf(w, "link %s %s %g %g %g\n",
			g.Node(l.Src), g.Node(l.Dst), l.Capacity, l.Delay, l.Weight); err != nil {
			return err
		}
	}
	writeGroups := func(kind string, groups [][]graph.LinkID) error {
		for _, grp := range groups {
			pairs := duplexPairs(g, grp)
			if pairs == "" {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", kind, pairs); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeGroups("srlg", g.SRLGs()); err != nil {
		return err
	}
	return writeGroups("mlg", g.MLGs())
}

// duplexPairs renders a group's links as space-separated a-b pairs,
// deduplicating reverse directions.
func duplexPairs(g *graph.Graph, grp []graph.LinkID) string {
	var parts []string
	done := map[graph.LinkID]bool{}
	for _, id := range grp {
		if done[id] {
			continue
		}
		l := g.Link(id)
		done[id] = true
		if l.Reverse >= 0 {
			done[l.Reverse] = true
		}
		parts = append(parts, g.Node(l.Src)+","+g.Node(l.Dst))
	}
	return strings.Join(parts, " ")
}
