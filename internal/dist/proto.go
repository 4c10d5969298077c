package dist

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/table"
)

// Payload shapes. Each frame kind carries at most one of these, gob-encoded
// with a fresh encoder per frame (stateless frames let the router relay
// payloads verbatim and keep byte accounting exact).

type helloMsg struct {
	Version int
}

type jobStartMsg struct {
	Ranks      int32
	N          int64
	GraphFP    uint64
	Colors     []uint8
	QueryName  string
	QueryK     int
	QueryEdges [][2]int
	Plan       planWire
	Algorithm  int
	Mode       int32 // engine.JobMode
	Anchor     int32
}

type graphDataMsg struct {
	FP uint64
	G  *graph.Graph
}

// wireLane is one staged chunk of packed entries addressed to a
// destination partition.
type wireLane struct {
	Dst  int32
	Ents []table.Ent
}

type batchMsg struct {
	Lanes []wireLane
}

type jobDoneMsg struct {
	Err       string
	Count     uint64
	PerVertex []uint64 // owned vertex block, [OwnedLo, OwnedHi)
	OwnedLo   uint32
	OwnedHi   uint32
	Steps     int64
	Load      int64
	Msgs      int64
	Entries   int64
}

type cancelMsg struct {
	Reason string
}

func encodePayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodePayload(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// Plan wire form. The solver navigates a decomposition tree through
// pointer identity (annotation and child links reference blocks of the
// same tree), which gob would silently break by duplicating shared nodes —
// so blocks are flattened to indices and the tree is rebuilt on arrival,
// preserving the exact split enumeration of the coordinator's plan.

type planBlock struct {
	Kind     int32
	Nodes    []int
	Boundary []int
	NodeAnn  []int32 // index into Blocks, -1 = nil
	EdgeAnn  []int32
	Children []int32
}

type planWire struct {
	Blocks []planBlock
	Root   int32
}

func encodePlan(t *decomp.Tree) (planWire, error) {
	idx := make(map[*decomp.Block]int32, len(t.Blocks))
	for i, b := range t.Blocks {
		idx[b] = int32(i)
	}
	ref := func(b *decomp.Block) (int32, error) {
		if b == nil {
			return -1, nil
		}
		i, ok := idx[b]
		if !ok {
			return 0, fmt.Errorf("dist: plan references a block outside its tree")
		}
		return i, nil
	}
	w := planWire{Blocks: make([]planBlock, len(t.Blocks))}
	root, ok := idx[t.Root]
	if !ok {
		return planWire{}, fmt.Errorf("dist: plan root is not among its blocks")
	}
	w.Root = root
	for i, b := range t.Blocks {
		pb := planBlock{
			Kind:     int32(b.Kind),
			Nodes:    b.Nodes,
			Boundary: b.Boundary,
			NodeAnn:  make([]int32, len(b.NodeAnn)),
			EdgeAnn:  make([]int32, len(b.EdgeAnn)),
			Children: make([]int32, len(b.Children)),
		}
		var err error
		for j, a := range b.NodeAnn {
			if pb.NodeAnn[j], err = ref(a); err != nil {
				return planWire{}, err
			}
		}
		for j, a := range b.EdgeAnn {
			if pb.EdgeAnn[j], err = ref(a); err != nil {
				return planWire{}, err
			}
		}
		for j, c := range b.Children {
			if pb.Children[j], err = ref(c); err != nil {
				return planWire{}, err
			}
		}
		w.Blocks[i] = pb
	}
	return w, nil
}

func decodePlan(w planWire, q *query.Graph) (*decomp.Tree, error) {
	n := int32(len(w.Blocks))
	blocks := make([]*decomp.Block, n)
	for i := range blocks {
		blocks[i] = &decomp.Block{ID: i}
	}
	ref := func(i int32) (*decomp.Block, error) {
		if i == -1 {
			return nil, nil
		}
		if i < 0 || i >= n {
			return nil, fmt.Errorf("dist: plan block reference %d out of range", i)
		}
		return blocks[i], nil
	}
	for i, pb := range w.Blocks {
		b := blocks[i]
		b.Kind = decomp.BlockKind(pb.Kind)
		b.Nodes = pb.Nodes
		b.Boundary = pb.Boundary
		b.NodeAnn = make([]*decomp.Block, len(pb.NodeAnn))
		b.EdgeAnn = make([]*decomp.Block, len(pb.EdgeAnn))
		b.Children = make([]*decomp.Block, len(pb.Children))
		var err error
		for j, a := range pb.NodeAnn {
			if b.NodeAnn[j], err = ref(a); err != nil {
				return nil, err
			}
		}
		for j, a := range pb.EdgeAnn {
			if b.EdgeAnn[j], err = ref(a); err != nil {
				return nil, err
			}
		}
		for j, c := range pb.Children {
			if b.Children[j], err = ref(c); err != nil {
				return nil, err
			}
		}
	}
	if w.Root < 0 || w.Root >= n {
		return nil, fmt.Errorf("dist: plan root %d out of range", w.Root)
	}
	return &decomp.Tree{Query: q, Root: blocks[w.Root], Blocks: blocks}, nil
}

// makeJobStart returns the validated, wire-ready form of an engine.Job. The
// partition topology travels as two integers — ranks and N — from which the
// coordinator and every rank build the same engine.Runtime block map, the
// grain rule's partitions, and bands (newCoord, newRank): no assignment
// table ever travels.
func makeJobStart(ranks int, job engine.Job) (jobStartMsg, error) {
	if job.Graph == nil || job.Query == nil || job.Plan == nil || job.Colors == nil {
		return jobStartMsg{}, fmt.Errorf("dist: backend needs the full job context (graph, query, plan, colors)")
	}
	if job.Graph.N() != job.N {
		return jobStartMsg{}, fmt.Errorf("dist: job N=%d but graph has %d vertices", job.N, job.Graph.N())
	}
	plan, err := encodePlan(job.Plan)
	if err != nil {
		return jobStartMsg{}, err
	}
	return jobStartMsg{
		Ranks:      int32(ranks),
		N:          int64(job.N),
		GraphFP:    job.Graph.Fingerprint(),
		Colors:     job.Colors,
		QueryName:  job.Query.Name,
		QueryK:     job.Query.K,
		QueryEdges: job.Query.Edges(),
		Plan:       plan,
		Algorithm:  job.Algorithm,
		Mode:       int32(job.Mode),
		Anchor:     int32(job.Anchor),
	}, nil
}
