package service

import (
	"container/heap"
	"context"
	"errors"
	"sync"
)

// ErrQueueFull is returned by SubmitJob when the scheduler's queue is at
// capacity; callers should shed load (HTTP 503).
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed is returned by SubmitJob after Close.
var ErrClosed = errors.New("service: scheduler closed")

// queued is one unit of scheduled work.
type queued struct {
	ctx     context.Context
	pri     int
	seq     uint64 // FIFO tie-break within a priority level
	fn      func(context.Context)
	cleanup func() // run exactly once: after fn, or when the job is dropped
}

// SchedulerStats are the scheduler's observability counters.
type SchedulerStats struct {
	Workers   int    `json:"workers" metric:"scheduler_workers" help:"Worker goroutines the scheduler runs jobs on."`
	Queued    int    `json:"queued" metric:"scheduler_queued" help:"Jobs waiting in the scheduler queue."`
	Running   int    `json:"running" metric:"scheduler_running" help:"Jobs currently running on workers."`
	Submitted uint64 `json:"submitted" metric:"scheduler_submitted_total" help:"Jobs submitted to the scheduler."`
	Completed uint64 `json:"completed" metric:"scheduler_completed_total" help:"Jobs the scheduler ran to completion."`
	Canceled  uint64 `json:"canceled" metric:"scheduler_canceled_total" help:"Jobs dropped before running (context canceled while queued)."`
	Rejected  uint64 `json:"rejected" metric:"scheduler_rejected_total" help:"Submissions rejected by the full queue."`
}

// Scheduler runs submitted jobs on a bounded pool of worker goroutines,
// highest priority first (FIFO within a priority). Jobs whose context is
// already canceled when a worker picks them up are dropped without
// running.
type Scheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  jobHeap
	maxQ   int
	closed bool
	seq    uint64
	wg     sync.WaitGroup
	stats  SchedulerStats // all but Queued, which Stats fills in
}

// NewScheduler starts a pool of workers goroutines (≤ 0 means 4) with a
// queue bounded at depth pending jobs (≤ 0 means 1024).
func NewScheduler(workers, depth int) *Scheduler {
	if workers <= 0 {
		workers = 4
	}
	if depth <= 0 {
		depth = 1024
	}
	s := &Scheduler{maxQ: depth, stats: SchedulerStats{Workers: workers}}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// SubmitJob enqueues fn at the given priority (higher runs first). fn
// receives ctx and should honor its cancellation; it reports its outcome
// itself. cleanup, if not nil, runs exactly once — after fn returns, or
// when the job is dropped because its context was already canceled. Use it
// to release resources (e.g. a registry handle) whose lifetime must cover
// the job, not the submitter.
func (s *Scheduler) SubmitJob(ctx context.Context, priority int, fn func(context.Context), cleanup func()) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.queue.Len() >= s.maxQ {
		s.stats.Rejected++
		return ErrQueueFull
	}
	s.seq++
	heap.Push(&s.queue, &queued{ctx: ctx, pri: priority, seq: s.seq, fn: fn, cleanup: cleanup})
	s.stats.Submitted++
	s.cond.Signal()
	return nil
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.queue.Len() == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*queued)
		if j.ctx.Err() != nil {
			s.stats.Canceled++
			s.mu.Unlock()
			if j.cleanup != nil {
				j.cleanup()
			}
			continue
		}
		s.stats.Running++
		s.mu.Unlock()

		j.fn(j.ctx)
		if j.cleanup != nil {
			j.cleanup()
		}

		s.mu.Lock()
		s.stats.Running--
		s.stats.Completed++
		s.mu.Unlock()
	}
}

// Close drains the queue (already-submitted jobs still run) and stops the
// workers. SubmitJob after Close fails with ErrClosed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats returns the scheduler counters.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Queued = s.queue.Len()
	return st
}

// jobHeap orders jobs by priority descending, then submission order.
type jobHeap []*queued

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].pri != h[j].pri {
		return h[i].pri > h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*queued)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
