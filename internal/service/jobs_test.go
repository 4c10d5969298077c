package service_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	subgraph "repro"
	"repro/internal/service"
)

// slowService returns a 1-worker service with a graph big enough that a
// many-trial estimate runs for many seconds — long enough that cancels
// reliably land mid-run — plus a small graph for quick follow-up jobs.
func slowService(t *testing.T) *subgraph.Service {
	t.Helper()
	svc := subgraph.NewService(subgraph.ServiceOptions{Workers: 1})
	t.Cleanup(svc.Close)
	if _, err := svc.AddGraph(subgraph.GraphSpec{PowerLawN: 8000, Alpha: 1.5, Seed: 2, Name: "slowg"}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddGraph(subgraph.GraphSpec{Standin: "enron", Scale: 512, Seed: 1, Name: "quickg"}); err != nil {
		t.Fatal(err)
	}
	return svc
}

// slowReq runs for minutes if nothing cancels it.
func slowReq() subgraph.EstimateRequest {
	return subgraph.EstimateRequest{Graph: "slowg", Query: "brain3", Trials: 500, Seed: 1}
}

// waitJobState polls until the job reports the wanted state.
func waitJobState(t *testing.T, svc *subgraph.Service, id string, want subgraph.JobState) subgraph.JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, err := svc.Job(id)
		if err != nil {
			t.Fatalf("job %s vanished while waiting for %s: %v", id, want, err)
		}
		if info.State == want {
			return info
		}
		if info.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", id, info.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobResultBitIdenticalToDirect: an async job's result equals the
// direct library call field for field — the job path is the same compute
// path as subgraph.Estimate.
func TestJobResultBitIdenticalToDirect(t *testing.T) {
	svc := subgraph.NewService(subgraph.ServiceOptions{Workers: 2})
	t.Cleanup(svc.Close)
	if _, err := svc.AddGraph(subgraph.GraphSpec{Standin: "enron", Scale: 512, Seed: 1, Name: "bench"}); err != nil {
		t.Fatal(err)
	}
	job, err := svc.SubmitEstimateJob(subgraph.EstimateRequest{Graph: "bench", Query: "glet1", Trials: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.WaitJob(context.Background(), job.ID, 30*time.Second)
	if err != nil || info.State != subgraph.JobDone {
		t.Fatalf("job = %+v (err %v), want done", info, err)
	}
	if info.Progress.TrialsDone != 4 || info.Progress.TrialsTotal != 4 {
		t.Errorf("progress = %+v, want 4/4", info.Progress)
	}
	res, err := svc.JobResult(job.ID)
	if err != nil {
		t.Fatal(err)
	}

	g, _ := subgraph.Standin("enron", 512, 1)
	q, err := subgraph.QueryByName("glet1")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := subgraph.Estimate(g, q, subgraph.EstimateOptions{Trials: 4, Seed: 9, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sameEstimate(res.Estimate, direct) {
		t.Errorf("job result differs from direct call:\njob:    %+v\ndirect: %+v", res.Estimate, direct)
	}
}

// TestCancelRunningJobFreesWorker is the acceptance criterion: canceling
// a job running a large estimate frees its worker within a bounded
// wall-clock interval (one outer-loop check interval plus scheduling
// noise), instead of the worker finishing the remaining trials.
func TestCancelRunningJobFreesWorker(t *testing.T) {
	svc := slowService(t)
	job, err := svc.SubmitEstimateJob(slowReq())
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, svc, job.ID, subgraph.JobRunning)

	start := time.Now()
	info, err := svc.CancelJob(job.ID)
	if err != nil || info.State != subgraph.JobCanceled {
		t.Fatalf("cancel = %+v (err=%v), want canceled", info, err)
	}
	// The job is terminal immediately; the worker itself must come free
	// promptly. 10s is orders of magnitude below the uncanceled runtime
	// (500 trials × ~100ms) while absorbing race-detector slowdowns.
	for svc.Stats().Scheduler.Running > 0 {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("worker still busy %v after cancel", time.Since(start))
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("worker freed %v after cancel", time.Since(start))

	// The freed worker runs new jobs: a quick estimate completes.
	res, err := svc.Estimate(context.Background(), subgraph.EstimateRequest{Graph: "quickg", Query: "wiki", Trials: 2, Seed: 3})
	if err != nil {
		t.Fatalf("estimate after cancel: %v", err)
	}
	if res.Estimate.Trials != 2 {
		t.Errorf("post-cancel estimate = %+v", res.Estimate)
	}

	// The canceled job's result reports the cancellation.
	if _, err := svc.JobResult(job.ID); !errors.Is(err, context.Canceled) {
		t.Errorf("JobResult = %v, want context.Canceled", err)
	}
}

// TestCancelQueuedJob: a job canceled while still queued never starts.
func TestCancelQueuedJob(t *testing.T) {
	svc := slowService(t)
	running, err := svc.SubmitEstimateJob(slowReq())
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, svc, running.ID, subgraph.JobRunning)

	queued, err := svc.SubmitEstimateJob(subgraph.EstimateRequest{Graph: "quickg", Query: "glet2", Trials: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := svc.Job(queued.ID); got.State != subgraph.JobQueued {
		t.Fatalf("second job on a 1-worker pool is %s, want queued", got.State)
	}
	info, err := svc.CancelJob(queued.ID)
	if err != nil || info.State != subgraph.JobCanceled {
		t.Fatalf("cancel queued = %+v (err=%v), want canceled", info, err)
	}
	if info.StartedAt != nil {
		t.Errorf("canceled queued job has StartedAt %v, want never started", info.StartedAt)
	}
	svc.CancelJob(running.ID) // free the worker before Close drains
}

// TestCancelFinishedJobIsNoOp: canceling a done job leaves its state and
// result untouched.
func TestCancelFinishedJobIsNoOp(t *testing.T) {
	svc := slowService(t)
	job, err := svc.SubmitEstimateJob(subgraph.EstimateRequest{Graph: "quickg", Query: "wiki", Trials: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if info, _ := svc.WaitJob(context.Background(), job.ID, 30*time.Second); info.State != subgraph.JobDone {
		t.Fatalf("job = %+v, want done", info)
	}
	info, err := svc.CancelJob(job.ID)
	if err != nil || info.State != subgraph.JobDone {
		t.Fatalf("cancel done job = %+v (err=%v), want state unchanged (done)", info, err)
	}
	if _, err := svc.JobResult(job.ID); err != nil {
		t.Errorf("result gone after no-op cancel: %v", err)
	}
}

// TestSingleflightCoalescing: identical concurrent requests attach to one
// in-flight computation; one follower canceling does not hurt the other;
// only one estimate is computed; the coalesced counter reports it.
func TestSingleflightCoalescing(t *testing.T) {
	svc := slowService(t)
	blocker, err := svc.SubmitEstimateJob(slowReq())
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, svc, blocker.ID, subgraph.JobRunning)

	// Three identical submissions while the worker is busy: one flight,
	// two followers.
	req := subgraph.EstimateRequest{Graph: "quickg", Query: "brain1", Trials: 3, Seed: 8}
	owner, err := svc.SubmitEstimateJob(req)
	if err != nil {
		t.Fatal(err)
	}
	fol1, err := svc.SubmitEstimateJob(req)
	if err != nil {
		t.Fatal(err)
	}
	fol2, err := svc.SubmitEstimateJob(req)
	if err != nil {
		t.Fatal(err)
	}
	if owner.Coalesced || !fol1.Coalesced || !fol2.Coalesced {
		t.Fatalf("coalesced flags = %v/%v/%v, want false/true/true",
			owner.Coalesced, fol1.Coalesced, fol2.Coalesced)
	}
	if got := svc.Stats().Jobs.Coalesced; got != 2 {
		t.Errorf("stats coalesced = %d, want 2", got)
	}

	// Canceling one follower must not cancel the shared computation.
	if info, _ := svc.CancelJob(fol2.ID); info.State != subgraph.JobCanceled {
		t.Fatalf("follower cancel = %+v", info)
	}
	svc.CancelJob(blocker.ID) // unblock the worker

	oinfo, _ := svc.WaitJob(context.Background(), owner.ID, 30*time.Second)
	finfo, _ := svc.WaitJob(context.Background(), fol1.ID, 30*time.Second)
	if oinfo.State != subgraph.JobDone || finfo.State != subgraph.JobDone {
		t.Fatalf("owner %s / follower %s, want done/done", oinfo.State, finfo.State)
	}
	ores, err := svc.JobResult(owner.ID)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := svc.JobResult(fol1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ores.Estimate, fres.Estimate) {
		t.Errorf("coalesced results differ:\n%+v\n%+v", ores.Estimate, fres.Estimate)
	}
	// One computation for the three submissions (the canceled blocker
	// computed nothing).
	if got := svc.Stats().Estimates; got != 1 {
		t.Errorf("estimates computed = %d, want 1", got)
	}
}

// TestSyncEstimateHonorsCallerContext: the sync wrapper detaches and
// surfaces context.Canceled when the caller gives up mid-run.
func TestSyncEstimateHonorsCallerContext(t *testing.T) {
	svc := slowService(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := svc.Estimate(ctx, slowReq())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Errorf("canceled sync estimate took %v", elapsed)
	}
}

// TestJobDeadlineFails: a per-job timeout fails the job with
// DeadlineExceeded (distinct from client cancellation).
func TestJobDeadlineFails(t *testing.T) {
	svc := slowService(t)
	req := slowReq()
	req.TimeoutMS = 100
	job, err := svc.SubmitEstimateJob(req)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := svc.WaitJob(context.Background(), job.ID, 30*time.Second)
	if info.State != subgraph.JobFailed {
		t.Fatalf("job = %+v, want failed", info)
	}
	if _, err := svc.JobResult(job.ID); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("JobResult = %v, want context.DeadlineExceeded", err)
	}
}

// TestJobRetentionTTL: finished jobs fall out of retention after JobTTL.
func TestJobRetentionTTL(t *testing.T) {
	svc := subgraph.NewService(subgraph.ServiceOptions{Workers: 1, JobTTL: 50 * time.Millisecond})
	t.Cleanup(svc.Close)
	if _, err := svc.AddGraph(subgraph.GraphSpec{Standin: "enron", Scale: 512, Seed: 1, Name: "g"}); err != nil {
		t.Fatal(err)
	}
	job, err := svc.SubmitEstimateJob(subgraph.EstimateRequest{Graph: "g", Query: "wiki", Trials: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if info, _ := svc.WaitJob(context.Background(), job.ID, 30*time.Second); info.State != subgraph.JobDone {
		t.Fatalf("job = %+v, want done", info)
	}
	time.Sleep(120 * time.Millisecond)
	if _, err := svc.Job(job.ID); !errors.Is(err, service.ErrUnknownJob) {
		t.Errorf("job still addressable after TTL (err %v)", err)
	}
	if _, err := svc.JobResult(job.ID); err == nil {
		t.Error("result still addressable after TTL")
	}
	if got := svc.Stats().Jobs.Expired; got == 0 {
		t.Error("expired counter never incremented")
	}
}

// TestCachedSubmitIsBornDone: a submission whose key is already cached
// completes instantly without occupying the (busy) worker.
func TestCachedSubmitIsBornDone(t *testing.T) {
	svc := slowService(t)
	req := subgraph.EstimateRequest{Graph: "quickg", Query: "glet1", Trials: 2, Seed: 6}
	if _, err := svc.Estimate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	blocker, err := svc.SubmitEstimateJob(slowReq())
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, svc, blocker.ID, subgraph.JobRunning)

	job, err := svc.SubmitEstimateJob(req)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != subgraph.JobDone || !job.Cached {
		t.Fatalf("cached submit = %+v, want done+cached despite busy worker", job)
	}
	svc.CancelJob(blocker.ID)
}

// TestCloseCancelsRunningFlights: Close must not wait for a minutes-long
// detached async job — it cancels outstanding flights and returns within
// a check interval — and, with or without a WAL, no goroutine of the
// service, its log or the solver's runtime outlives it once the canceled
// solve has unwound. An events stream on the running job gets the job's
// terminal event and ends, and a replica's connections to the replicas it
// forwarded to close with it.
func TestCloseCancelsRunningFlights(t *testing.T) {
	for _, wal := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", wal), func(t *testing.T) {
			opts := subgraph.ServiceOptions{Workers: 1}
			if wal {
				opts.Durability.Dir = t.TempDir()
			}
			svc := subgraph.NewService(opts)
			if _, err := svc.AddGraph(subgraph.GraphSpec{PowerLawN: 8000, Alpha: 1.5, Seed: 2, Name: "slowg"}); err != nil {
				t.Fatal(err)
			}
			job, err := svc.SubmitEstimateJob(slowReq())
			if err != nil {
				t.Fatal(err)
			}
			waitJobState(t, svc, job.ID, subgraph.JobRunning)
			start := time.Now()
			svc.Close()
			if elapsed := time.Since(start); elapsed > 15*time.Second {
				t.Fatalf("Close blocked %v behind a running flight", elapsed)
			}
			// Shutdown kills are server-initiated: the job fails with the
			// retryable ErrClosed (503 on the wire), not a client cancel (499).
			if info, _ := svc.Job(job.ID); info.State != subgraph.JobFailed {
				t.Errorf("job after Close = %s, want failed (server shutdown)", info.State)
			}
			if _, err := svc.JobResult(job.ID); !strings.Contains(fmt.Sprint(err), "closed") {
				t.Errorf("JobResult after Close = %v, want scheduler-closed error", err)
			}
			pkgs := []string{"service", "durable", "engine"}
			for i := 0; i < 1000 && len(goroutinesOf(pkgs...)) > 0; i++ {
				time.Sleep(5 * time.Millisecond)
			}
			if got := goroutinesOf(pkgs...); len(got) != 0 {
				t.Errorf("goroutines outlive Close: %v", got)
			}
		})
	}
	t.Run("events stream", func(t *testing.T) {
		svc := subgraph.NewService(subgraph.ServiceOptions{Workers: 1})
		if _, err := svc.AddGraph(subgraph.GraphSpec{PowerLawN: 8000, Alpha: 1.5, Seed: 2, Name: "slowg"}); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(svc.Handler())
		defer srv.Close()
		job, err := svc.SubmitEstimateJob(slowReq())
		if err != nil {
			t.Fatal(err)
		}
		waitJobState(t, svc, job.ID, subgraph.JobRunning)
		client := &http.Client{Timeout: 30 * time.Second}
		resp, err := client.Get(srv.URL + "/v1/jobs/" + job.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		svc.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("the events stream did not end after Close: %v", err)
		}
		if !strings.Contains(string(raw), "event: failed\n") {
			t.Errorf("the events stream ended without the failed event:\n%s", raw)
		}
	})
	// A replica's connections to its home close at Close: the one it keeps
	// alive idle then, and one whose forward is in flight then, as that
	// forward ends. The request is held at the replica until its Close has
	// returned, so the forward asks the client for a connection after Close
	// emptied the pool: net/http's Transport closes a connection that goes
	// idle after CloseIdleConnections only until the next request asks for
	// one, so a forward whose request was sent before Close needs nothing.
	for _, inFlight := range []bool{false, true} {
		name := "forward connections"
		if inFlight {
			name += ", one in flight at Close"
		}
		t.Run(name, func(t *testing.T) {
			var lns [2]net.Listener
			var addrs []string
			for i := range lns {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				lns[i], addrs = ln, append(addrs, ln.Addr().String())
			}
			// The home (replica 1) hears only from replica 0's forward client.
			var mu sync.Mutex
			open := map[net.Conn]bool{}
			var hold atomic.Bool
			held, release := make(chan struct{}), make(chan struct{})
			svcs := make([]*subgraph.Service, 2)
			for i := range svcs {
				cl, err := subgraph.NewCluster(subgraph.ClusterOptions{Self: addrs[i], Members: addrs, HealthEvery: -1})
				if err != nil {
					t.Fatal(err)
				}
				svcs[i] = subgraph.NewService(subgraph.ServiceOptions{Workers: 1, Cluster: cl})
				if _, err := svcs[i].AddGraph(subgraph.GraphSpec{Standin: "enron", Scale: 256, Seed: 1, Name: "g"}); err != nil {
					t.Fatal(err)
				}
				srv := &http.Server{Handler: svcs[i].Handler()}
				if i == 0 {
					h := srv.Handler
					srv.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
						if hold.CompareAndSwap(true, false) {
							close(held)
							<-release
						}
						h.ServeHTTP(w, r)
					})
				} else {
					srv.ConnState = func(c net.Conn, st http.ConnState) {
						mu.Lock()
						defer mu.Unlock()
						switch st {
						case http.StateNew:
							open[c] = true
						case http.StateClosed, http.StateHijacked:
							delete(open, c)
						}
					}
				}
				go srv.Serve(lns[i]) //nolint:errcheck // closed on cleanup
				t.Cleanup(func() {
					srv.Close()
					cl.Close()
				})
			}
			defer svcs[1].Close()
			seed := 1
			for ; svcs[0].Stats().Cluster.Forwards == 0; seed++ {
				if seed > 64 {
					t.Fatal("no key of 64 seeds homes at replica 1")
				}
				clusterPost(t, addrs[0], "/v1/estimate", estimateBody(seed), http.StatusOK, nil)
			}
			if !inFlight {
				svcs[0].Close()
			} else {
				hold.Store(true)
				status := make(chan error, 1)
				go func() {
					resp, err := http.Post("http://"+addrs[0]+"/v1/estimate", "application/json", strings.NewReader(estimateBody(seed-1)))
					if err == nil {
						io.Copy(io.Discard, resp.Body) //nolint:errcheck // the status is what is checked
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							err = fmt.Errorf("status %d", resp.StatusCode)
						}
					}
					status <- err
				}()
				select {
				case <-held:
				case <-time.After(10 * time.Second):
					t.Fatal("the request did not reach the replica")
				}
				svcs[0].Close()
				close(release)
				if err := <-status; err != nil {
					t.Fatalf("the forward in flight at Close: %v", err)
				}
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				mu.Lock()
				n := len(open)
				mu.Unlock()
				if n == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d forward connections to the home are still open 5s after Close", n)
				}
			}
		})
	}
}

// TestMaxJobsSweepDrainsToLowWater: finished jobs beyond MaxJobs are
// evicted oldest first, down to the low-water mark an eighth below the cap
// (so a saturated manager is not rescanned on every submission), and a job
// still running is never among them, however old.
func TestMaxJobsSweepDrainsToLowWater(t *testing.T) {
	svc := subgraph.NewService(subgraph.ServiceOptions{Workers: 1, MaxJobs: 8})
	t.Cleanup(svc.Close)
	for _, spec := range []subgraph.GraphSpec{
		{PowerLawN: 8000, Alpha: 1.5, Seed: 2, Name: "slowg"},
		{Standin: "enron", Scale: 512, Seed: 1, Name: "quickg"},
	} {
		if _, err := svc.AddGraph(spec); err != nil {
			t.Fatal(err)
		}
	}
	quick := subgraph.EstimateRequest{Graph: "quickg", Query: "path3", Trials: 1, Seed: 1}
	if _, err := svc.Estimate(context.Background(), quick); err != nil { // j1, computed
		t.Fatal(err)
	}
	slow, err := svc.SubmitEstimateJob(slowReq()) // j2, running on the only worker throughout
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, svc, slow.ID, subgraph.JobRunning)
	// j3…j11 are answered from the cache, born finished: ten finished jobs
	// in all. j11 registers with nine retained, over the cap; the sweep
	// leaves seven, and j11 makes eight.
	for i := 0; i < 9; i++ {
		if _, err := svc.SubmitEstimateJob(quick); err != nil {
			t.Fatal(err)
		}
	}
	var ids []string
	for _, j := range svc.Jobs() {
		ids = append(ids, j.ID)
		if (j.ID == slow.ID) == j.State.Terminal() {
			t.Errorf("job %s is %s", j.ID, j.State)
		}
	}
	want := []string{"j11", "j10", "j9", "j8", "j7", "j6", "j5", "j4", "j2"} // newest first
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("retained %v, want %v: the running job and the eight newest finished ones", ids, want)
	}
	if st := svc.Stats().Jobs; st.Expired != 2 {
		t.Errorf("%d jobs evicted, want 2 (a sweep to the cap itself would evict 1)", st.Expired)
	}
}
