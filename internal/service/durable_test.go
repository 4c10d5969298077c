package service_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	subgraph "repro"
	"repro/internal/service"
)

// openDurable starts a service over dataDir (empty = in-memory) with the
// golden graph registered. Backend comes from the environment default,
// so the CI backend matrix runs this file's restart equivalence against
// sim, parallel, and dist alike.
func openDurable(t *testing.T, dataDir string) *subgraph.Service {
	t.Helper()
	opts := subgraph.ServiceOptions{Workers: 2}
	if dataDir != "" {
		opts.Durability = subgraph.DurabilityOptions{Dir: dataDir, Fsync: "always"}
	}
	svc, err := subgraph.OpenService(opts)
	if err != nil {
		t.Fatalf("OpenService: %v", err)
	}
	if _, err := svc.AddGraph(subgraph.GraphSpec{Standin: "enron", Scale: 512, Seed: 1, Name: "g"}); err != nil {
		svc.Close()
		t.Fatalf("AddGraph: %v", err)
	}
	return svc
}

// durableReqs is the request mix the equivalence tests replay: a fixed
// trial count, a precision target that extends those trials, and a
// second stream entirely.
func durableReqs() []subgraph.EstimateRequest {
	return []subgraph.EstimateRequest{
		{Graph: "g", Query: "glet1", Trials: 3, Seed: 7},
		{Graph: "g", Query: "glet1", Seed: 7,
			Precision: &subgraph.PrecisionSpec{RelErr: 0.5, Confidence: 0.9, MaxTrials: 64}},
		{Graph: "g", Query: "cycle5", Trials: 4, Seed: 2},
	}
}

// TestRestartBitIdentity is the replay-equivalence bar: a service that
// computed, died, and restarted over its data dir must answer the same
// requests bit-identically to one that never stopped — and must answer
// them purely from the replayed cache, with zero fresh solver runs.
func TestRestartBitIdentity(t *testing.T) {
	reqs := durableReqs()

	// The never-stopped reference.
	ref := openDurable(t, "")
	want := make([]subgraph.EstimateResult, len(reqs))
	for i, req := range reqs {
		res, err := ref.Estimate(context.Background(), req)
		if err != nil {
			t.Fatalf("reference request %d: %v", i, err)
		}
		want[i] = res
	}
	ref.Close()

	// First durable life: compute everything, then die.
	dir := t.TempDir()
	svc := openDurable(t, dir)
	for i, req := range reqs {
		res, err := svc.Estimate(context.Background(), req)
		if err != nil {
			t.Fatalf("durable request %d: %v", i, err)
		}
		if !reflect.DeepEqual(res.Estimate, want[i].Estimate) {
			t.Fatalf("durable service diverged from in-memory before any restart (request %d)", i)
		}
	}
	svc.Close()

	// Second life: same answers, no compute.
	svc2 := openDurable(t, dir)
	defer svc2.Close()
	st := svc2.Stats()
	if st.Durable == nil {
		t.Fatal("restarted service reports no durable stats")
	}
	if st.Durable.ReplayedRuns == 0 {
		t.Fatalf("restart replayed no runs: %+v", *st.Durable)
	}
	for i, req := range reqs {
		res, err := svc2.Estimate(context.Background(), req)
		if err != nil {
			t.Fatalf("replayed request %d: %v", i, err)
		}
		if !reflect.DeepEqual(res.Estimate, want[i].Estimate) {
			t.Errorf("request %d: restarted estimate diverges from the never-stopped one", i)
		}
		if !res.Cached {
			t.Errorf("request %d not served from the replayed cache", i)
		}
	}
	if got := svc2.Stats().Estimates; got != 0 {
		t.Errorf("restart recomputed %d estimates; warm replay must compute none", got)
	}
}

// TestRestartReplaysFullCache: a cache filled to exactly its capacity
// comes back whole — boot replay must not drop a run the cache has room
// for. 64 distinct streams (random seeds: consecutive ones spread too
// evenly under any hash to tell a bucketed cache from an exact one) into
// a capacity-64 cache, restart, and all 64 are served from the replayed
// cache bit-identically. Once from the log alone and once with a
// compaction threshold the first life crosses many times over, so the
// second boots from a snapshot the service itself supplied (its cache
// export and its terminal jobs) plus a log tail: both must restore the
// same runs and the same jobs.
func TestRestartReplaysFullCache(t *testing.T) {
	const capacity = 64
	rng := rand.New(rand.NewSource(19))
	seeds := make([]int64, capacity)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	req := func(i int) subgraph.EstimateRequest {
		return subgraph.EstimateRequest{Graph: "g", Query: "path3", Trials: 2, Seed: seeds[i]}
	}
	// What a second life holds, without the clock: its cached runs by key
	// and, per restored job in order, its identity, state and result.
	type restored struct {
		runs map[string]any
		jobs []any
	}
	lives := map[string]restored{}
	for name, compactBytes := range map[string]int64{"log only": 0, "compacted": 2 << 10} {
		dir := t.TempDir()
		open := func() *subgraph.Service {
			svc, err := subgraph.OpenService(subgraph.ServiceOptions{
				Workers: 2, CacheCapacity: capacity,
				Durability: subgraph.DurabilityOptions{Dir: dir, Fsync: "always", CompactBytes: compactBytes},
			})
			if err != nil {
				t.Fatalf("%s: OpenService: %v", name, err)
			}
			if _, err := svc.AddGraph(subgraph.GraphSpec{Standin: "enron", Scale: 512, Seed: 1, Name: "g"}); err != nil {
				svc.Close()
				t.Fatalf("%s: AddGraph: %v", name, err)
			}
			return svc
		}

		svc := open()
		want := make([]subgraph.EstimateResult, capacity)
		for i := range want {
			res, err := svc.Estimate(context.Background(), req(i))
			if err != nil {
				t.Fatalf("%s: seed %d: %v", name, i, err)
			}
			want[i] = res
		}
		if st := svc.Stats().Cache; st.Entries != capacity || st.Evictions != 0 {
			t.Errorf("%s: first life: %d entries, %d evictions in a capacity-%d cache", name, st.Entries, st.Evictions, capacity)
		}
		svc.Close() // drains the log's queue: every append and compaction it owes has happened
		if got := svc.Stats().Durable.Compactions; (got > 0) != (compactBytes > 0) {
			t.Errorf("%s: %d compactions with a threshold of %d bytes", name, got, compactBytes)
		}

		svc2 := open()
		st := svc2.Stats()
		if st.Durable.ReplayedRuns != capacity || st.Cache.Entries != capacity || st.Cache.Evictions != 0 {
			t.Errorf("%s: replayed %d runs into %d entries with %d evictions, want %d/%d/0",
				name, st.Durable.ReplayedRuns, st.Cache.Entries, st.Cache.Evictions, capacity, capacity)
		}
		life := restored{runs: map[string]any{}}
		for _, e := range svc2.Cache().Export() {
			life.runs[fmt.Sprint(e.Key())] = service.TrialRun{Counts: e.Counts, Stats: e.Stats}
		}
		for _, j := range svc2.Jobs() {
			res, err := svc2.JobResult(j.ID)
			if err != nil {
				t.Errorf("%s: restored job %s has no result: %v", name, j.ID, err)
			}
			life.jobs = append(life.jobs, []any{j.ID, j.State, j.Query, j.Progress, res.Estimate})
		}
		lives[name] = life
		for i := range want {
			res, err := svc2.Estimate(context.Background(), req(i))
			if err != nil {
				t.Fatalf("%s: replayed seed %d: %v", name, i, err)
			}
			if !res.Cached {
				t.Errorf("%s: seed %d recomputed after restart; the cache had room for it", name, i)
			}
			if !reflect.DeepEqual(res.Estimate, want[i].Estimate) {
				t.Errorf("%s: seed %d: restarted estimate diverges", name, i)
			}
		}
		if got := svc2.Stats().Estimates; got != 0 {
			t.Errorf("%s: restart recomputed %d estimates; warm replay must compute none", name, got)
		}
		svc2.Close()
	}
	if a, b := lives["log only"], lives["compacted"]; len(a.runs) != capacity || len(a.jobs) != capacity ||
		!reflect.DeepEqual(a.runs, b.runs) || !reflect.DeepEqual(a.jobs, b.jobs) {
		t.Errorf("a compacted directory restores %d runs and %d jobs, its log-only twin %d and %d, or they differ",
			len(b.runs), len(b.jobs), len(a.runs), len(a.jobs))
	}
}

// TestRestartExtendsReplayedTrials: a tighter precision request after
// restart must extend the replayed trials (computing only the missing
// ones), and the extended stream's prefix stays bit-identical.
func TestRestartExtendsReplayedTrials(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir)
	first, err := svc.Estimate(context.Background(),
		subgraph.EstimateRequest{Graph: "g", Query: "glet1", Trials: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()

	svc2 := openDurable(t, dir)
	defer svc2.Close()
	res, err := svc2.Estimate(context.Background(),
		subgraph.EstimateRequest{Graph: "g", Query: "glet1", Trials: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimate.Counts) != 6 {
		t.Fatalf("extended run has %d trials, want 6", len(res.Estimate.Counts))
	}
	if !reflect.DeepEqual(res.Estimate.Counts[:3], first.Estimate.Counts) {
		t.Error("extension does not preserve the replayed trial prefix bit-identically")
	}
	st := svc2.Stats()
	if st.Cache.Extended == 0 {
		t.Errorf("extension not counted: cache.extended = 0 (stats %+v)", st.Cache)
	}
}

// TestJobsSurviveRestart: terminal jobs — done and canceled — stay
// addressable by their original ids across a restart, replay the same
// result bytes, and fresh submissions never collide with replayed ids.
func TestJobsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir)
	info, err := svc.SubmitEstimateJob(subgraph.EstimateRequest{Graph: "g", Query: "glet1", Trials: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := svc.WaitJob(context.Background(), info.ID, 30*time.Second)
	if done.State != subgraph.JobDone {
		t.Fatalf("job ended %s", done.State)
	}
	res1, err := svc.JobResult(info.ID)
	if err != nil {
		t.Fatal(err)
	}

	// A pure cache hit is born done without computing a single trial; its
	// estimate is reconstructible from the persisted runs, so the job
	// itself is not persisted (that filter is what keeps durability off
	// the hot serving path).
	hit, err := svc.SubmitEstimateJob(subgraph.EstimateRequest{Graph: "g", Query: "glet1", Trials: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if hinfo, _ := svc.WaitJob(context.Background(), hit.ID, 30*time.Second); !hinfo.Cached {
		t.Fatalf("repeat submission not served from cache: %+v", hinfo)
	}

	// A canceled job is terminal too; it must survive as canceled.
	cinfo, err := svc.SubmitEstimateJob(subgraph.EstimateRequest{Graph: "g", Query: "brain3", Trials: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if ci, err := svc.CancelJob(cinfo.ID); err != nil || ci.State != subgraph.JobCanceled {
		t.Fatalf("cancel: err=%v state=%v", err, ci.State)
	}
	svc.Close()

	svc2 := openDurable(t, dir)
	defer svc2.Close()
	st := svc2.Stats()
	if st.Durable == nil || st.Durable.ReplayedJobs < 2 {
		t.Fatalf("restart replayed too few jobs: %+v", st.Durable)
	}
	got, err := svc2.Job(info.ID)
	if err != nil || got.State != subgraph.JobDone {
		t.Fatalf("done job lost across restart: err=%v info=%+v", err, got)
	}
	if !got.Cached && got.Progress.TrialsDone != done.Progress.TrialsDone {
		t.Errorf("replayed job progress diverges: %+v vs %+v", got.Progress, done.Progress)
	}
	res2, err := svc2.JobResult(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.Estimate, res2.Estimate) {
		t.Error("replayed job result diverges from the pre-restart one")
	}
	if ci, err := svc2.Job(cinfo.ID); err != nil || ci.State != subgraph.JobCanceled {
		t.Fatalf("canceled job lost across restart: err=%v info=%+v", err, ci)
	}
	// Checked before any new submission (fresh jobs may reuse ids that
	// were never persisted): the cache-hit job must not have a record.
	if hi, err := svc2.Job(hit.ID); !errors.Is(err, service.ErrUnknownJob) {
		t.Errorf("pure cache-hit job persisted across restart: %+v (err %v)", hi, err)
	}
	if _, err := svc2.JobResult(cinfo.ID); err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Errorf("replayed canceled job's result err = %v, want canceled", err)
	}

	// Fresh ids must start past every replayed one.
	fresh, err := svc2.SubmitEstimateJob(subgraph.EstimateRequest{Graph: "g", Query: "glet1", Trials: 3, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == info.ID || fresh.ID == cinfo.ID {
		t.Fatalf("fresh job id %s collides with a replayed id", fresh.ID)
	}
	if _, err := svc2.Job(fresh.ID); err != nil {
		t.Fatalf("fresh job not addressable: %v", err)
	}
}

// TestDurableOpenErrors: a data dir that cannot be created surfaces
// through OpenService (and panics through NewService, preserving New's
// infallible in-memory contract).
func TestDurableOpenErrors(t *testing.T) {
	bad := subgraph.ServiceOptions{Workers: 1,
		Durability: subgraph.DurabilityOptions{Dir: "/dev/null/not-a-dir"}}
	if svc, err := subgraph.OpenService(bad); err == nil {
		svc.Close()
		t.Fatal("OpenService over an uncreatable dir succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewService with a broken data dir did not panic")
		}
	}()
	subgraph.NewService(bad)
}

// TestShutdownSettledJobsNotPersisted: jobs the shutdown sweep settles
// with the retryable closed error are not real outcomes and must not be
// resurrected as failed after a restart.
func TestShutdownSettledJobsNotPersisted(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir)
	long, err := svc.SubmitEstimateJob(subgraph.EstimateRequest{Graph: "g", Query: "brain3", Trials: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	svc.Close() // settles the live job with ErrClosed

	svc2 := openDurable(t, dir)
	defer svc2.Close()
	if info, err := svc2.Job(long.ID); !errors.Is(err, service.ErrUnknownJob) {
		t.Errorf("shutdown-settled job resurrected after restart: %+v (err %v)", info, err)
	}
}
