package service

import (
	"context"
	"fmt"
)

// BatchRequest fans one graph and many queries out across the worker
// pool. Per-query fields left zero inherit the batch-level defaults —
// which means a zero per-query value (seed 0, priority 0) cannot
// override a non-zero batch default; leave the batch field unset, or
// send that query as a standalone estimate, to run at the zero value.
type BatchRequest struct {
	Graph     string            `json:"graph"`
	Algorithm string            `json:"algorithm,omitempty"`
	Backend   string            `json:"backend,omitempty"`
	Trials    int               `json:"trials,omitempty"`
	Seed      int64             `json:"seed,omitempty"`
	Ranks     int               `json:"ranks,omitempty"`
	Priority  int               `json:"priority,omitempty"`
	TimeoutMS int64             `json:"timeoutMs,omitempty"`
	NoCache   bool              `json:"noCache,omitempty"`
	Precision *PrecisionSpec    `json:"precision,omitempty"`
	Queries   []EstimateRequest `json:"queries"`
}

// BatchItem is one query's outcome within a batch.
type BatchItem struct {
	Query  string
	Result EstimateResult
	Err    error
}

// label names a batch item for error attribution even when the request
// failed before a query graph existed: catalog name, else the explicit
// queryName, else the item's position.
func label(req EstimateRequest, i int) string {
	switch {
	case req.Query != "":
		return req.Query
	case req.QueryName != "":
		return req.QueryName
	default:
		return fmt.Sprintf("#%d", i)
	}
}

// EstimateBatch resolves the batch's graph once and submits every query
// as its own job — exactly as a standalone estimate is — so a batch of N
// queries occupies up to N workers concurrently, and identical queries
// coalesce onto one flight. Results keep the request order; per-item
// errors do not fail the batch (a batch-level error means nothing ran).
func (s *Service) EstimateBatch(ctx context.Context, breq BatchRequest) ([]BatchItem, error) {
	if len(breq.Queries) == 0 {
		return nil, fmt.Errorf("service: batch has no queries")
	}
	// Hold a lease across submission so the graph cannot be evicted
	// between items; each flight takes its own lease on top.
	h, ok := s.reg.Acquire(breq.Graph)
	if !ok {
		return nil, fmt.Errorf("%w %q (register it first)", ErrUnknownGraph, breq.Graph)
	}
	defer h.Release()
	s.batches.Add(1)

	items := make([]BatchItem, len(breq.Queries))
	pending := make([]*job, len(breq.Queries)) // nil where an item failed to submit
	for i := range breq.Queries {
		qreq, err := breq.item(i)
		var r resolved
		if err == nil {
			r, err = s.resolve(qreq)
		}
		if err != nil {
			items[i] = BatchItem{Query: label(qreq, i), Err: err}
			continue
		}
		items[i].Query = r.q.Name
		pending[i], items[i].Err = s.submitJob(r)
	}
	for i, j := range pending {
		if j != nil {
			items[i].Result, items[i].Err = s.waitJob(ctx, j)
		}
	}
	return items, nil
}

// item returns the batch's query i with the batch-level defaults merged
// in, or the error that fails that item alone.
func (b BatchRequest) item(i int) (EstimateRequest, error) {
	req := b.Queries[i]
	if req.Graph != "" && req.Graph != b.Graph {
		// Honoring a per-query graph would need its own registry
		// lookup; silently computing against the batch graph instead
		// would be a wrong answer without an error.
		return req, fmt.Errorf("service: batch query %d names graph %q; batches run against one graph (%q)", i, req.Graph, b.Graph)
	}
	req.Graph = b.Graph
	if req.Algorithm == "" {
		req.Algorithm = b.Algorithm
	}
	if req.Backend == "" {
		req.Backend = b.Backend
	}
	if req.Trials <= 0 {
		req.Trials = b.Trials
	}
	if req.Seed == 0 {
		req.Seed = b.Seed
	}
	if req.Ranks <= 0 {
		req.Ranks = b.Ranks
	}
	if req.Priority == 0 {
		req.Priority = b.Priority
	}
	if req.TimeoutMS <= 0 {
		req.TimeoutMS = b.TimeoutMS
	}
	if req.Precision == nil {
		req.Precision = b.Precision
	}
	req.NoCache = req.NoCache || b.NoCache
	return req, nil
}
