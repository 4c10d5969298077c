package service_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	subgraph "repro"
	"repro/internal/service"
)

// TestRegistryBudgetKeepsNewestRegistration: a service whose graph budget
// fits three and a half graphs registers five, estimating on each id the
// moment AddGraph returns it. Every registration must be usable (the LRU
// victim is the oldest idle graph, never the one just added), and
// afterwards exactly the three newest are resident.
func TestRegistryBudgetKeepsNewestRegistration(t *testing.T) {
	one := maxGraphBytes(t, 5)
	budget := 3*one + one/2
	svc := subgraph.NewService(subgraph.ServiceOptions{Workers: 1, GraphBudgetBytes: budget})
	t.Cleanup(svc.Close)

	var ids []string
	for seed := int64(1); seed <= 5; seed++ {
		info, err := svc.AddGraph(plSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		if _, err := svc.Estimate(context.Background(),
			subgraph.EstimateRequest{Graph: info.ID, Query: "path3", Trials: 1, Seed: 1}); err != nil {
			t.Fatalf("estimate on just-registered %s: %v", info.ID, err)
		}
	}
	for i, id := range ids {
		_, ok := svc.Registry().Info(id)
		if want := i >= 2; ok != want {
			t.Errorf("%s resolvable = %v, want %v (the three newest stay)", id, ok, want)
		}
	}
	st := svc.Stats().Registry
	if st.Evictions != 2 || st.Graphs != 3 || st.Bytes > budget {
		t.Errorf("want 3 graphs, 2 evictions, bytes ≤ %d: %+v", budget, st)
	}
}

// TestConcurrentServiceChurn hammers one service from many goroutines
// under -race — registering graphs past the registry budget (so they are
// evicted and re-registered all along), estimating, and submitting and
// canceling jobs — then verifies a golden request still returns the
// bit-exact library result.
func TestConcurrentServiceChurn(t *testing.T) {
	const graphs = 6
	one := maxGraphBytes(t, graphs)
	svc := subgraph.NewService(subgraph.ServiceOptions{Workers: 4, GraphBudgetBytes: 3*one + one/2})
	t.Cleanup(svc.Close)

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				info, err := svc.AddGraph(plSpec(int64((w+i)%graphs + 1)))
				if err != nil {
					t.Error(err)
					return
				}
				req := subgraph.EstimateRequest{
					Graph:  info.ID,
					Query:  []string{"path3", "cycle4", "star4"}[(w+i)%3],
					Trials: 1, Seed: int64(i % 3),
				}
				if i%4 == 3 {
					var job subgraph.JobInfo
					if job, err = svc.SubmitEstimateJob(req); err == nil {
						svc.CancelJob(job.ID)
					}
				} else {
					_, err = svc.Estimate(context.Background(), req)
				}
				// Another goroutine's registration may evict the graph
				// between AddGraph and the request; nothing else may fail.
				if err != nil && !errors.Is(err, service.ErrUnknownGraph) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := svc.Stats().Registry; st.Evictions == 0 || st.Bytes > st.BudgetBytes {
		t.Errorf("churn should evict and end within budget: %+v", st)
	}

	// Golden check after the churn: served result == direct library call.
	g, ok := subgraph.Standin("enron", 512, 1)
	if !ok {
		t.Fatal("unknown stand-in")
	}
	if _, err := svc.AddGraph(subgraph.GraphSpec{Standin: "enron", Scale: 512, Seed: 1, Name: "gold"}); err != nil {
		t.Fatal(err)
	}
	q, err := subgraph.QueryByName("glet1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := subgraph.Estimate(g, q, subgraph.EstimateOptions{Trials: 3, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Estimate(context.Background(), subgraph.EstimateRequest{
		Graph: "gold", Query: "glet1", Trials: 3, Seed: 7, Ranks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Estimate
	got.Graph = want.Graph // served display name differs by registration
	if !reflect.DeepEqual(want, got) {
		t.Errorf("served estimate diverged from library:\nwant %+v\ngot  %+v", want, got)
	}
}

// serviceGoroutines returns the "created by" line of every live goroutine
// the service package started.
func serviceGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if i := strings.Index(g, "created by repro/internal/service."); i >= 0 {
			line, _, _ := strings.Cut(g[i:], " in goroutine")
			out = append(out, line)
		}
	}
	return out
}

// TestServiceStartsOnlySchedulerGoroutines: an in-memory service runs its
// scheduler's workers and nothing else — no goroutine behind the registry
// or the cache — and Close ends them all.
func TestServiceStartsOnlySchedulerGoroutines(t *testing.T) {
	const workers = 3
	if got := serviceGoroutines(); len(got) != 0 {
		t.Fatalf("service goroutines before Open: %v", got)
	}
	svc := subgraph.NewService(subgraph.ServiceOptions{Workers: workers})
	got := serviceGoroutines()
	if len(got) != workers {
		t.Errorf("service started %d goroutines, want the %d scheduler workers: %v", len(got), workers, got)
	}
	for _, g := range got {
		if !strings.HasSuffix(g, "service.NewScheduler") {
			t.Errorf("goroutine not started by the scheduler: %s", g)
		}
	}
	svc.Close()
	for i := 0; i < 200 && len(serviceGoroutines()) > 0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if got := serviceGoroutines(); len(got) != 0 {
		t.Errorf("goroutines outlive Close: %v", got)
	}
}

// TestPathLoadingSandbox covers the GraphDir confinement: disabled by
// default, traversal and absolute paths rejected, legitimate files under
// the configured directory loadable.
func TestPathLoadingSandbox(t *testing.T) {
	// Disabled by default.
	closed := subgraph.NewService(subgraph.ServiceOptions{Workers: 1})
	t.Cleanup(closed.Close)
	if _, err := closed.AddGraph(subgraph.GraphSpec{Path: "x.edges"}); err == nil ||
		!strings.Contains(err.Error(), "disabled") {
		t.Fatalf("path loading without GraphDir: err = %v, want disabled error", err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "tri.edges"), []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	secret := filepath.Join(t.TempDir(), "secret.txt")
	if err := os.WriteFile(secret, []byte("top secret\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	svc := subgraph.NewService(subgraph.ServiceOptions{Workers: 1, GraphDir: dir})
	t.Cleanup(svc.Close)

	info, err := svc.AddGraph(subgraph.GraphSpec{Path: "tri.edges", Name: "tri"})
	if err != nil {
		t.Fatalf("loading a file inside GraphDir: %v", err)
	}
	if info.Nodes != 3 || info.Edges != 3 {
		t.Errorf("loaded graph = %+v, want 3 nodes / 3 edges", info)
	}

	for _, p := range []string{
		secret,                        // absolute
		"../" + filepath.Base(secret), // traversal
		"..",
	} {
		if _, err := svc.AddGraph(subgraph.GraphSpec{Path: p}); err == nil {
			t.Errorf("path %q escaped the sandbox", p)
		} else if strings.Contains(err.Error(), "top secret") {
			t.Errorf("path %q error leaks file content: %v", p, err)
		}
	}

	if _, err := svc.AddGraph(subgraph.GraphSpec{Path: "missing.edges"}); err == nil {
		t.Error("missing file accepted")
	}

	// A symlink inside GraphDir pointing outside must not defeat the
	// confinement.
	if err := os.Symlink(filepath.Dir(secret), filepath.Join(dir, "out")); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddGraph(subgraph.GraphSpec{Path: "out/secret.txt"}); err == nil {
		t.Error("symlink escaped the sandbox")
	} else if strings.Contains(err.Error(), "top secret") {
		t.Errorf("symlink escape error leaks file content: %v", err)
	}
}

// TestPathLoadingSizeBound rejects files larger than the registry budget
// before reading them.
func TestPathLoadingSizeBound(t *testing.T) {
	dir := t.TempDir()
	big := strings.Repeat("0 1\n", 1024)
	if err := os.WriteFile(filepath.Join(dir, "big.edges"), []byte(big), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := subgraph.NewService(subgraph.ServiceOptions{
		Workers: 1, GraphDir: dir, GraphBudgetBytes: 1024,
	})
	t.Cleanup(svc.Close)
	if _, err := svc.AddGraph(subgraph.GraphSpec{Path: "big.edges"}); err == nil ||
		!strings.Contains(err.Error(), "exceeds the registry budget") {
		t.Fatalf("oversized file: err = %v, want budget error", err)
	}
}
