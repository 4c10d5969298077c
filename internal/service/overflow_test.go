package service_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	subgraph "repro"
)

// TestCountOverflowIsRefused: a 6-node star on a hub of 30000 leaves has
// about 3.8·10²⁰ colourful matches under any colouring that spreads the
// leaves over the colours, past 2⁶⁴. The service answers the estimate 422,
// and the job for it ends failed, its result 422 too — with nothing cached
// and nothing appended to the durable log.
func TestCountOverflowIsRefused(t *testing.T) {
	graphs := t.TempDir()
	var edges strings.Builder
	for v := 1; v <= 30000; v++ {
		fmt.Fprintf(&edges, "0 %d\n", v)
	}
	if err := os.WriteFile(filepath.Join(graphs, "hub.txt"), []byte(edges.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := subgraph.OpenService(subgraph.ServiceOptions{
		Workers: 1, GraphDir: graphs, Durability: subgraph.DurabilityOptions{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	post(t, ts, "/v1/graphs", `{"path":"hub.txt","name":"hub"}`, http.StatusOK)

	const star = `"graph":"hub","queryEdges":[[0,1],[0,2],[0,3],[0,4],[0,5]],"trials":2`
	raw, _ := post(t, ts, "/v1/estimate", `{`+star+`,"seed":1}`, http.StatusUnprocessableEntity)
	if !strings.Contains(string(raw), "count overflow") {
		t.Errorf("estimate refused with %s, want a count overflow", raw)
	}

	raw, _ = post(t, ts, "/v1/jobs", `{`+star+`,"seed":2}`, http.StatusAccepted)
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}
	get(t, ts, "/v1/jobs/"+job.ID+"?wait=20s", &job)
	if job.State != "failed" {
		t.Fatalf("job %s is %q, want failed", job.ID, job.State)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("the failed job's result answers %d, want 422", resp.StatusCode)
	}

	st := svc.Stats()
	if st.Cache.Entries != 0 || st.Durable.Appends+uint64(st.Durable.Lag) != 0 {
		t.Errorf("refused counts left %d cache entries and %d log records (%d queued), want none",
			st.Cache.Entries, st.Durable.Appends, st.Durable.Lag)
	}
}
