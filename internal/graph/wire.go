package graph

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"slices"
)

// Wire support for the dist backend: a Graph ships to worker processes
// once per fingerprint and is cached there, so supersteps exchange only
// keyed counts. Only the CSR structure travels; the degree-based rank
// order is recomputed on arrival (it is a pure function of the structure,
// so every process derives the identical order).

// wireGraph is the gob shape of a Graph. The rank order is derived, not
// shipped.
type wireGraph struct {
	Name string
	N    int
	Off  []int64
	Nbr  []uint32
}

// GobEncode implements gob.GobEncoder.
func (g *Graph) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(wireGraph{Name: g.Name, N: g.n, Off: g.off, Nbr: g.nbr})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder, rebuilding the derived rank order and
// largest degree. It refuses offsets that do not rise from 0 to len(Nbr),
// and neighbours ≥ N.
func (g *Graph) GobDecode(b []byte) error {
	var w wireGraph
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	if w.N < 0 || len(w.Off) != w.N+1 {
		return fmt.Errorf("graph: wire CSR has %d offsets for %d vertices", len(w.Off), w.N)
	}
	if w.Off[0] != 0 || w.Off[w.N] != int64(len(w.Nbr)) || !slices.IsSorted(w.Off) {
		return fmt.Errorf("graph: wire CSR offsets do not run from 0 up to %d neighbours", len(w.Nbr))
	}
	if len(w.Nbr) > 0 && int64(slices.Max(w.Nbr)) >= int64(w.N) {
		return fmt.Errorf("graph: wire CSR names neighbour %d of %d vertices", slices.Max(w.Nbr), w.N)
	}
	g.Name = w.Name
	g.n = w.N
	g.off = w.Off
	g.nbr = w.Nbr
	g.computeRank()
	return nil
}

// Fingerprint returns a structural FNV-1a hash of the graph: the vertex
// count, then each vertex's degree and sorted neighbours (the name does
// not participate). The byte layout is frozen: the service keys cached and
// persisted trial runs by it and the replica ring places keys by it.
// Graphs are immutable after construction, so the hash is memoized per
// instance.
func (g *Graph) Fingerprint() uint64 {
	g.fpOnce.Do(func() {
		h := fnv.New64a()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(g.n))
		h.Write(b[:])
		for v := uint32(0); v < uint32(g.n); v++ {
			ns := g.Neighbors(v)
			binary.LittleEndian.PutUint32(b[:4], uint32(len(ns)))
			h.Write(b[:4])
			for _, w := range ns {
				binary.LittleEndian.PutUint32(b[:4], w)
				h.Write(b[:4])
			}
		}
		g.fp = h.Sum64()
	})
	return g.fp
}
