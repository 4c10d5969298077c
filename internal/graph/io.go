package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list ("u v" per line,
// '#' or '%' comment lines ignored) in the format used by the SNAP
// collection, and builds a graph. Vertex ids must be non-negative integers;
// they are used directly (the graph covers 0..max id). So that one line
// naming vertex 4·10⁹ does not allocate tens of gigabytes, a max id over
// spareIDs plus idsPerEdge per distinct edge — duplicates do not count, so
// a graph read survives WriteEdgeList and a second read — is refused.
func ReadEdgeList(name string, r io.Reader) (*Graph, error) {
	b := NewBuilder(name, 0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: %s:%d: need two vertex ids, got %q", name, line, text)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: %s:%d: bad vertex id %q: %v", name, line, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: %s:%d: bad vertex id %q: %v", name, line, fields[1], err)
		}
		b.AddEdge(uint32(u), uint32(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading %s: %v", name, err)
	}
	if b.n > spareIDs {
		if m := b.edges(); b.n > spareIDs+idsPerEdge*m {
			return nil, fmt.Errorf("graph: %s: vertex id %d is too sparse for %d edges", name, b.n-1, m)
		}
	}
	return b.Build(), nil
}

// The bound on how sparse an edge list's ids may be (ReadEdgeList).
const (
	spareIDs   = 1 << 16
	idsPerEdge = 32
)

// LoadEdgeList reads an edge-list file from disk.
func LoadEdgeList(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(path, f)
}

// WriteEdgeList writes the graph as "u v" lines, each undirected edge once
// (u < v), preceded by a comment header.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s: %d nodes %d edges\n", g.Name, g.n, g.M())
	for v := 0; v < g.n; v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if uint32(v) < u {
				fmt.Fprintf(bw, "%d %d\n", v, u)
			}
		}
	}
	return bw.Flush()
}
