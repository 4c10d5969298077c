package service_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

func nop(context.Context) {}

// blockWorker occupies the scheduler's single worker until release is
// closed, so subsequent submissions pile up in the priority queue.
func blockWorker(t *testing.T, s *service.Scheduler) (release chan struct{}) {
	t.Helper()
	started := make(chan struct{})
	release = make(chan struct{})
	if err := s.SubmitJob(context.Background(), 1<<30, func(context.Context) {
		close(started)
		<-release
	}, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	return release
}

// settled returns a cleanup hook for each of n jobs and a function that
// waits, up to a deadline, until every hook has run.
func settled(t *testing.T, n int) (hook func(), wait func()) {
	var wg sync.WaitGroup
	wg.Add(n)
	return wg.Done, func() {
		t.Helper()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("a job's cleanup hook never ran")
		}
	}
}

func TestSchedulerPriorityOrder(t *testing.T) {
	s := service.NewScheduler(1, 0)
	defer s.Close()
	release := blockWorker(t, s)

	var mu sync.Mutex
	var order []int
	pris := []int{1, 3, 2, 3}
	hook, wait := settled(t, len(pris))
	for _, pri := range pris {
		if err := s.SubmitJob(context.Background(), pri, func(context.Context) {
			mu.Lock()
			order = append(order, pri)
			mu.Unlock()
		}, hook); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	wait()
	want := []int{3, 3, 2, 1} // priority desc, FIFO within a level
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

func TestSchedulerDropsCanceledJobs(t *testing.T) {
	s := service.NewScheduler(1, 0)
	defer s.Close()
	release := blockWorker(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	hook, wait := settled(t, 1)
	if err := s.SubmitJob(ctx, 0, func(context.Context) { ran = true }, hook); err != nil {
		t.Fatal(err)
	}
	cancel()
	close(release)
	wait()
	if ran {
		t.Error("canceled job's fn ran anyway")
	}
	if st := s.Stats(); st.Canceled != 1 || st.Completed != 1 {
		t.Errorf("canceled %d, completed %d; want 1 and 1 (the blocker)", st.Canceled, st.Completed)
	}
}

func TestSchedulerDeadline(t *testing.T) {
	s := service.NewScheduler(1, 0)
	defer s.Close()
	release := blockWorker(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	ran := false
	hook, wait := settled(t, 1)
	if err := s.SubmitJob(ctx, 0, func(context.Context) { ran = true }, hook); err != nil {
		t.Fatal(err)
	}
	// The worker is blocked, so the deadline fires while queued.
	<-ctx.Done()
	close(release)
	wait()
	if ran || s.Stats().Canceled != 1 {
		t.Errorf("a job past its deadline while queued: ran %v, canceled %d; want false, 1", ran, s.Stats().Canceled)
	}
}

func TestSchedulerQueueFull(t *testing.T) {
	s := service.NewScheduler(1, 1)
	defer s.Close()
	release := blockWorker(t, s)
	defer close(release)

	if err := s.SubmitJob(context.Background(), 0, nop, nil); err != nil {
		t.Fatalf("first queued job rejected: %v", err)
	}
	if err := s.SubmitJob(context.Background(), 0, nop, nil); !errors.Is(err, service.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

func TestSchedulerCloseDrainsQueue(t *testing.T) {
	s := service.NewScheduler(2, 0)
	var mu sync.Mutex
	done := 0
	for i := 0; i < 16; i++ {
		if err := s.SubmitJob(context.Background(), 0, func(context.Context) {
			mu.Lock()
			done++
			mu.Unlock()
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() // must drain, not abandon: every fn has returned
	if done != 16 {
		t.Errorf("done = %d, want 16", done)
	}
	if err := s.SubmitJob(context.Background(), 0, nop, nil); !errors.Is(err, service.ErrClosed) {
		t.Errorf("SubmitJob after Close = %v, want ErrClosed", err)
	}
}
