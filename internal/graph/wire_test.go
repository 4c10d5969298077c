package graph

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// wireBytes encodes w as GobEncode lays a graph out, offsets and neighbours
// as given, with none of the checks a built graph has passed.
func wireBytes(t testing.TB, w wireGraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// badWires are CSRs that a reader of the graph would index out of range.
var badWires = map[string]wireGraph{
	"negative first offset":     {N: 2, Off: []int64{-1, 0, 1}, Nbr: []uint32{1}},
	"first offset past 0":       {N: 2, Off: []int64{1, 1, 2}, Nbr: []uint32{1, 0}},
	"last offset short of Nbr":  {N: 2, Off: []int64{0, 1, 1}, Nbr: []uint32{1, 0}},
	"last offset past Nbr":      {N: 2, Off: []int64{0, 1, 3}, Nbr: []uint32{1, 0}},
	"offsets fall":              {N: 3, Off: []int64{0, 2, 1, 2}, Nbr: []uint32{1, 2}},
	"neighbour past N":          {N: 2, Off: []int64{0, 1, 2}, Nbr: []uint32{2, 0}},
	"neighbour far past N":      {N: 2, Off: []int64{0, 1, 2}, Nbr: []uint32{1, 1 << 31}},
	"negative vertex count":     {N: -1},
	"offsets for another count": {N: 3, Off: []int64{0, 1, 2}, Nbr: []uint32{1, 0}},
}

func TestGobDecodeRefusesBadCSR(t *testing.T) {
	for name, w := range badWires {
		var g Graph
		if err := g.GobDecode(wireBytes(t, w)); err == nil {
			t.Errorf("%s: %+v decoded", name, w)
		}
	}
}

// FuzzGraphGob feeds hostile bytes to GobDecode. Nothing may panic, and a
// graph that decodes names only its own vertices as neighbours.
func FuzzGraphGob(f *testing.F) {
	good, err := triangleWithTail().GobEncode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(wireBytes(f, wireGraph{Name: "empty", Off: []int64{0}}))
	for _, w := range badWires {
		f.Add(wireBytes(f, w))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if g.GobDecode(data) != nil {
			return
		}
		for v := uint32(0); int(v) < g.N(); v++ {
			for _, x := range g.Neighbors(v) {
				if int(x) >= g.N() {
					t.Fatalf("vertex %d of %d has neighbour %d", v, g.N(), x)
				}
			}
			g.Rank(v)
		}
		g.Fingerprint()
	})
}
