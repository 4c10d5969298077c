package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzRequestBody feeds hostile bytes through the front half of the
// estimate and job endpoints: decodeBody (the handlers' size limit and
// unknown-field rejection) and then resolve. Nothing may panic, and every
// lease a resolution takes comes back: once it is released, no graph is
// held. The seeds are valid requests as the JSON encoder writes them.
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
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req EstimateRequest
		hr := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body))
		if !decodeBody(httptest.NewRecorder(), hr, &req) {
			return
		}
		if r, err := svc.resolve(req); err == nil {
			r.h.Release()
		}
		for _, g := range svc.reg.List() {
			if g.Refs != 0 {
				t.Fatalf("graph %s holds %d leases after its resolution was released", g.ID, g.Refs)
			}
		}
	})
}
