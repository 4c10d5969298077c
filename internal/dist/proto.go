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

// check bounds what a start sizes before the solver validates the rest:
// the assigned rank must be one of the job's ranks, and the query's k×k
// adjacency matrix no larger than the solver accepts.
func (m *jobStartMsg) check(rank int) error {
	if rank < 0 || rank >= int(m.Ranks) {
		return fmt.Errorf("dist: job start assigns rank %d of %d", rank, m.Ranks)
	}
	if m.QueryK < 0 || m.QueryK > query.MaxK {
		return fmt.Errorf("dist: job start has a %d-node query; max %d", m.QueryK, query.MaxK)
	}
	return nil
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
	Max   uint64 // the sender's bound on the step's output (engine.Sharded.Max)
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
	root, ok := idx[t.Root]
	if !ok {
		return planWire{}, fmt.Errorf("dist: plan root is not among its blocks")
	}
	var err error
	refs := func(bs []*decomp.Block) []int32 {
		out := make([]int32, len(bs))
		for j, b := range bs {
			i, ok := idx[b]
			switch {
			case b == nil:
				i = -1
			case !ok:
				err = fmt.Errorf("dist: plan references a block outside its tree")
			}
			out[j] = i
		}
		return out
	}
	w := planWire{Blocks: make([]planBlock, len(t.Blocks)), Root: root}
	for i, b := range t.Blocks {
		w.Blocks[i] = planBlock{
			Kind:     int32(b.Kind),
			Nodes:    b.Nodes,
			Boundary: b.Boundary,
			NodeAnn:  refs(b.NodeAnn),
			EdgeAnn:  refs(b.EdgeAnn),
			Children: refs(b.Children),
		}
	}
	if err != nil {
		return planWire{}, err
	}
	return w, nil
}

func decodePlan(w planWire, q *query.Graph) (*decomp.Tree, error) {
	n := int32(len(w.Blocks))
	blocks := make([]*decomp.Block, n)
	for i := range blocks {
		blocks[i] = &decomp.Block{ID: i}
	}
	var err error
	refs := func(is []int32) []*decomp.Block {
		out := make([]*decomp.Block, len(is))
		for j, i := range is {
			switch {
			case i >= 0 && i < n:
				out[j] = blocks[i]
			case i != -1:
				err = fmt.Errorf("dist: plan block reference %d out of range", i)
			}
		}
		return out
	}
	for i, pb := range w.Blocks {
		b := blocks[i]
		b.Kind = decomp.BlockKind(pb.Kind)
		b.Nodes = pb.Nodes
		b.Boundary = pb.Boundary
		b.NodeAnn = refs(pb.NodeAnn)
		b.EdgeAnn = refs(pb.EdgeAnn)
		b.Children = refs(pb.Children)
	}
	if err != nil {
		return nil, err
	}
	if w.Root < 0 || w.Root >= n {
		return nil, fmt.Errorf("dist: plan root %d out of range", w.Root)
	}
	t := &decomp.Tree{Query: q, Root: blocks[w.Root], Blocks: blocks}
	t.MarkMirrored()
	return t, nil
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
