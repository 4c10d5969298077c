// Serve: run the estimation service in-process and drive it over HTTP the
// way a remote client would — register a graph once, fan the paper's ten
// Figure 8 queries out as one batch, then repeat the batch to show the
// result cache turning recomputation into microsecond replays.
//
// This is the serving-layer counterpart of examples/quickstart: the same
// Estimate kernel, but amortized across requests by the graph registry,
// result cache, and scheduled worker pool.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	subgraph "repro"
)

func main() {
	svc := subgraph.NewService(subgraph.ServiceOptions{Workers: 8})
	defer svc.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln) //nolint:errcheck // closed via Shutdown below
	defer srv.Shutdown(context.Background())
	base := "http://" + ln.Addr().String()
	fmt.Printf("sgserve listening on %s\n\n", base)

	// Register the epinions stand-in once; every request after this reuses
	// the loaded graph through the registry.
	info := postJSON[subgraph.GraphInfo](base+"/v1/graphs",
		`{"standin":"epinions","scale":512,"seed":1,"name":"epinions"}`)
	fmt.Printf("registered %s (%s): %d nodes, %d edges, fingerprint %s\n\n",
		info.Name, info.ID, info.Nodes, info.Edges, info.Fingerprint)

	// One batch: the ten Figure 8 catalog queries, scheduled concurrently
	// across the worker pool.
	var queries bytes.Buffer
	for i, q := range subgraph.Queries() {
		if i > 0 {
			queries.WriteString(",")
		}
		fmt.Fprintf(&queries, `{"query":%q}`, q.Name)
	}
	batch := fmt.Sprintf(`{"graph":"epinions","trials":3,"seed":7,"queries":[%s]}`, queries.String())

	type batchResp struct {
		Results []struct {
			Query     string  `json:"query"`
			Cached    bool    `json:"cached"`
			ElapsedMS float64 `json:"elapsedMs"`
			Estimate  struct {
				Matches   float64 `json:"Matches"`
				Subgraphs float64 `json:"Subgraphs"`
				CV        float64 `json:"CV"`
			} `json:"estimate"`
			Error string `json:"error"`
		} `json:"results"`
	}

	for round := 1; round <= 2; round++ {
		start := time.Now()
		resp := postJSON[batchResp](base+"/v1/batch", batch)
		wall := time.Since(start)
		fmt.Printf("batch round %d (%d queries in %v):\n", round, len(resp.Results), wall.Round(time.Millisecond))
		var served float64
		for _, r := range resp.Results {
			if r.Error != "" {
				fmt.Printf("  %-8s error: %s\n", r.Query, r.Error)
				continue
			}
			src := "computed"
			if r.Cached {
				src = "cache"
			}
			served += r.ElapsedMS
			fmt.Printf("  %-8s ≈%12.0f matches  (CV %.3f, %8.3f ms, %s)\n",
				r.Query, r.Estimate.Matches, r.Estimate.CV, r.ElapsedMS, src)
		}
		fmt.Printf("  throughput: %.1f estimates/s (sum of per-query latency %.1f ms)\n\n",
			float64(len(resp.Results))/wall.Seconds(), served)
	}

	var stats subgraph.ServiceStats
	getJSON(base+"/v1/stats", &stats)
	fmt.Printf("service stats: %d estimates computed, cache %d/%d hit/miss, %d workers\n",
		stats.Estimates, stats.Cache.Hits, stats.Cache.Misses, stats.Scheduler.Workers)
}

func postJSON[T any](url, body string) T {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	return v
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
