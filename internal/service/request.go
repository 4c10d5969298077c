package service

import (
	"fmt"
	"time"

	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/query"
)

// EstimateRequest is one estimation job.
type EstimateRequest struct {
	// Graph is the registry id or name of an already-registered graph.
	Graph string `json:"graph,omitempty"`
	// Query names a catalog or parametric query (see subgraph.QueryByName);
	// alternatively QueryEdges gives an explicit edge list over nodes
	// 0..k-1, with QueryName as optional display name.
	Query      string   `json:"query,omitempty"`
	QueryEdges [][2]int `json:"queryEdges,omitempty"`
	QueryName  string   `json:"queryName,omitempty"`

	// Algorithm is "DB" (default), "PS", or "PSEven".
	Algorithm string `json:"algorithm,omitempty"`
	// Backend is the execution backend: "sim", "parallel", or — on a
	// server connected to worker processes — "dist" ("" means the service
	// default). Estimates are bit-identical across backends; the engine
	// stats embedded in the result differ, so the backend is part of the
	// cache key.
	Backend string `json:"backend,omitempty"`
	// Trials is the number of independent colorings (≤ 0 means the service
	// default, itself defaulting to 3).
	Trials int `json:"trials,omitempty"`
	// Seed feeds the coloring RNG; equal seeds give bit-identical results.
	Seed int64 `json:"seed,omitempty"`
	// Ranks is the execution width (≤ 0 means the service default, itself
	// defaulting to 4): simulated ranks under "sim", worker goroutines
	// under "parallel" — bands of the same vertex partitions, whose number
	// follows the graph, not this. Under "dist" the width is the worker
	// processes, and Ranks is ignored.
	Ranks int `json:"ranks,omitempty"`
	// Parallel runs up to this many trials concurrently inside the job;
	// results are bit-identical to serial (≤ 1 means serial).
	Parallel int `json:"parallel,omitempty"`
	// Priority orders queued jobs; higher runs first.
	Priority int `json:"priority,omitempty"`
	// TimeoutMS bounds the job, queue time included; 0 means the service
	// default.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
	// NoCache skips the result cache lookup (the result is still stored).
	NoCache bool `json:"noCache,omitempty"`
	// Precision switches the request from "run Trials colorings" to
	// "reach this precision": the job runs trials until the observed
	// confidence interval meets the declared target, reusing and
	// extending previously cached trials for the same stream. With
	// Precision set, Trials (if > 0) acts as the MaxTrials default.
	Precision *PrecisionSpec `json:"precision,omitempty"`
}

// PrecisionSpec is the wire form of a declared accuracy target: stop
// adding trials once the estimate's two-sided Confidence-level confidence
// interval has half-width at most RelErr of the mean. The stopping
// decision is a pure function of the per-trial counts, so a
// precision-targeted request is exactly as deterministic and cacheable as
// a fixed-trial one: it resolves to the same estimate a fixed request
// with its stopping trial count would get.
type PrecisionSpec struct {
	// RelErr is the target relative error (0.1 = ±10%); must be > 0.
	RelErr float64 `json:"relErr"`
	// Confidence is the two-sided confidence level in (0,1); 0 means 0.95.
	Confidence float64 `json:"confidence,omitempty"`
	// MinTrials is the earliest trial the rule may fire at (0 means 3).
	MinTrials int `json:"minTrials,omitempty"`
	// MaxTrials caps the adaptive run (0 means the request's trials, else
	// the server's max-trials limit).
	MaxTrials int `json:"maxTrials,omitempty"`
}

// rule is a normalized request's stopping rule, capped at its effective
// trial bound: the declared target's, or — a fixed-trial request — the
// rule with no target, which fires at Trials and nowhere earlier.
func (req EstimateRequest) rule() coloring.Adaptive {
	ad := coloring.Adaptive{MaxTrials: req.Trials}
	if p := req.Precision; p != nil {
		ad.Precision = coloring.Precision{RelErr: p.RelErr, Confidence: p.Confidence}
		ad.MinTrials = p.MinTrials
	}
	return ad
}

// EstimateResult is one finished estimation.
type EstimateResult struct {
	Estimate coloring.Estimate
	Cached   bool
	// Elapsed is the job's own time, submission to terminal state: the
	// same figure for a sync estimate, a batch item and a job's result.
	Elapsed time.Duration
}

// ParseAlgorithm maps the wire name to a core.Algorithm ("" means DB).
func ParseAlgorithm(name string) (core.Algorithm, error) {
	switch name {
	case "", "DB", "db":
		return core.DB, nil
	case "PS", "ps":
		return core.PS, nil
	case "PSEven", "pseven":
		return core.PSEven, nil
	}
	return core.DB, fmt.Errorf("service: unknown algorithm %q (want DB, PS, or PSEven)", name)
}

// buildQuery resolves the request's query: a catalog/parametric name, or
// an explicit edge list. Both are untrusted: edge lists go through the
// checked constructor with the solver's node bound (so a hostile request
// cannot force a huge k×k adjacency allocation), and resolved queries of
// any provenance are size-checked here rather than deep inside a job.
func buildQuery(req EstimateRequest) (*query.Graph, error) {
	var (
		q   *query.Graph
		err error
	)
	if len(req.QueryEdges) == 0 {
		if req.Query == "" {
			return nil, fmt.Errorf("service: request needs query or queryEdges")
		}
		q, err = query.ByName(req.Query)
	} else {
		name := req.QueryName
		if name == "" {
			name = "custom"
		}
		q, err = query.FromEdgesChecked(name, req.QueryEdges, query.MaxK-1)
	}
	if err != nil {
		return nil, err
	}
	if q.K > query.MaxK {
		return nil, fmt.Errorf("service: query %s has %d nodes; the solver supports at most %d", q.Name, q.K, query.MaxK)
	}
	return q, nil
}

func (s *Service) normalize(req EstimateRequest) (EstimateRequest, error) {
	if req.Backend == "" {
		req.Backend = s.opts.Backend
	}
	// Canonicalize so "" / env-default / explicit "sim" all share one
	// cache key and one inflight-index key.
	backend, err := engine.Canonical(req.Backend)
	if err != nil {
		return req, err
	}
	req.Backend = backend
	if p := req.Precision; p != nil {
		// Normalize into a fresh copy: callers (and batches fanning one
		// spec across queries) must not see their spec mutated.
		np := *p
		if np.RelErr <= 0 {
			return req, fmt.Errorf("service: precision.relErr must be > 0 (got %g)", np.RelErr)
		}
		if np.Confidence == 0 {
			np.Confidence = coloring.DefaultConfidence
		}
		if np.Confidence <= 0 || np.Confidence >= 1 {
			return req, fmt.Errorf("service: precision.confidence %g outside (0,1)", np.Confidence)
		}
		if np.MinTrials <= 0 {
			np.MinTrials = coloring.DefaultMinTrials
		}
		if np.MinTrials < 2 {
			np.MinTrials = 2
		}
		if np.MaxTrials <= 0 {
			if req.Trials > 0 {
				np.MaxTrials = req.Trials
			} else {
				np.MaxTrials = s.opts.MaxTrials
			}
		}
		if np.MinTrials > np.MaxTrials {
			np.MinTrials = np.MaxTrials
		}
		// The adaptive bound rides in Trials from here on: it is the
		// worst-case trial count (sizing, limits, progress totals) and
		// keys the request together with the precision fields.
		req.Trials = np.MaxTrials
		req.Precision = &np
	}
	if req.Trials <= 0 {
		req.Trials = s.opts.DefaultTrials
	}
	if req.Trials > s.opts.MaxTrials {
		return req, fmt.Errorf("service: trials %d exceeds server limit %d", req.Trials, s.opts.MaxTrials)
	}
	if req.Ranks <= 0 {
		req.Ranks = s.opts.DefaultRanks
	}
	if req.Ranks > s.opts.MaxRanks {
		return req, fmt.Errorf("service: ranks %d exceeds server limit %d", req.Ranks, s.opts.MaxRanks)
	}
	// Parallel multiplies per-job memory (one simulated cluster per
	// concurrent trial) without changing results, so clamp rather than
	// reject: the request stays valid, the blast radius stays bounded.
	if req.Parallel > maxParallelPerJob {
		req.Parallel = maxParallelPerJob
	}
	return req, nil
}

// maxParallelPerJob caps intra-job trial concurrency; cross-job
// concurrency is already bounded by the worker pool.
const maxParallelPerJob = 16

// resolved is one request after every check and lookup a submission
// needs: normalized, its algorithm parsed, its query built, its graph
// leased and its key derived. The lease is the holder's to release.
type resolved struct {
	req EstimateRequest
	alg core.Algorithm
	q   *query.Graph
	h   *Handle
	key Key
}

// resolve runs normalize, ParseAlgorithm, buildQuery, the registry lookup
// and the key derivation for one request. Every entry — an estimate, a
// job, a batch item, a cluster route — resolves its request exactly once
// and hands the result on.
func (s *Service) resolve(req EstimateRequest) (resolved, error) {
	req, err := s.normalize(req)
	if err != nil {
		return resolved{}, err
	}
	alg, err := ParseAlgorithm(req.Algorithm)
	if err != nil {
		return resolved{}, err
	}
	q, err := buildQuery(req)
	if err != nil {
		return resolved{}, err
	}
	h, ok := s.reg.Acquire(req.Graph)
	if !ok {
		return resolved{}, fmt.Errorf("%w %q (register it first)", ErrUnknownGraph, req.Graph)
	}
	key := Key{
		Graph:     h.Fingerprint(),
		Query:     QuerySignature(q),
		Algorithm: alg,
		Backend:   req.Backend,
		Trials:    req.Trials,
		Seed:      req.Seed,
		Ranks:     req.Ranks,
	}
	// Fixed-trial requests leave the precision fields zero, so their keys
	// are unchanged from the pre-precision API — the compatibility-shim
	// test pins this against silent re-keying.
	if p := req.Precision; p != nil {
		key.RelErr = p.RelErr
		key.Confidence = p.Confidence
		key.MinTrials = p.MinTrials
	}
	return resolved{req: req, alg: alg, q: q, h: h, key: key}, nil
}
