package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzRequestBody feeds hostile bytes through the front half of every
// endpoint that takes a JSON body: decodeBody (the handlers' size limit and
// unknown-field rejection), then for an estimate or a job resolve, for a
// batch each item merged with the batch's defaults and resolved, and for a
// graph registration normalize (never build: a valid spec may name a
// graph of millions of vertices). Nothing may panic, and every lease a
// resolution takes comes back: once it is released, no graph is held.
// The seeds are valid requests as the JSON encoder writes them.
func FuzzRequestBody(f *testing.F) {
	svc := New(Options{Workers: 1, MaxTrials: 64, MaxRanks: 8})
	f.Cleanup(svc.Close)
	if _, err := svc.AddGraph(GraphSpec{Standin: "enron", Scale: 512, Seed: 1, Name: "g"}); err != nil {
		f.Fatal(err)
	}
	for _, req := range []EstimateRequest{
		{Graph: "g", Query: "glet1", Trials: 3, Seed: 7},
		{Graph: "g1", Query: "brain3", Algorithm: "PS", Backend: "parallel", Ranks: 2, Parallel: 4},
		{Graph: "g", QueryEdges: [][2]int{{0, 1}, {1, 2}, {2, 0}}, QueryName: "tri", Seed: -3},
		{Graph: "g", Query: "cycle5", Precision: &PrecisionSpec{RelErr: 0.1, Confidence: 0.9, MinTrials: 2, MaxTrials: 32}},
		{Graph: "g", Query: "path4", Algorithm: "PSEven", TimeoutMS: 5, NoCache: true, Priority: 2},
		{Graph: "missing", Query: "glet1"},
	} {
		f.Add(mustJSON(f, req))
	}
	f.Add(mustJSON(f, BatchRequest{Graph: "g", Trials: 2, Seed: 5, Priority: 1, Precision: &PrecisionSpec{RelErr: 0.2},
		Queries: []EstimateRequest{{Query: "glet1"}, {Query: "path3", Seed: 9, Graph: "g"}, {Query: "glet2", Graph: "other"}}}))
	for _, spec := range []GraphSpec{
		{Standin: "enron", Scale: 512, Seed: 1, Name: "g"},
		{PowerLawN: 1000, Alpha: 2.1},
		{RMATScale: 12, EdgeFactor: 8, Seed: 3},
		{Path: "edges.txt", Name: "file"},
	} {
		f.Add(mustJSON(f, spec))
	}
	decode := func(body []byte, v any) bool {
		hr := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body))
		return decodeBody(httptest.NewRecorder(), hr, v)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var reqs []EstimateRequest
		var req EstimateRequest
		if decode(body, &req) {
			reqs = append(reqs, req)
		}
		var batch BatchRequest
		if decode(body, &batch) {
			for i := range batch.Queries {
				if req, err := batch.item(i); err == nil {
					reqs = append(reqs, req)
				}
			}
		}
		for _, req := range reqs {
			if r, err := svc.resolve(req); err == nil {
				r.h.Release()
			}
		}
		var spec GraphSpec
		if decode(body, &spec) {
			spec.normalize() //nolint:errcheck // a refusal is an outcome; a panic is not
		}
		for _, g := range svc.reg.List() {
			if g.Refs != 0 {
				t.Fatalf("graph %s holds %d leases after its resolution was released", g.ID, g.Refs)
			}
		}
	})
}

func mustJSON(f *testing.F, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		f.Fatal(err)
	}
	return b
}
