package service

import (
	"container/heap"
	"context"
	"errors"
	"sync"
)

// ErrQueueFull is returned by Submit when the scheduler's queue is at
// capacity; callers should shed load (HTTP 503).
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: scheduler closed")

// Job is one unit of scheduled work. Wait blocks until the job finished,
// was canceled while queued, or its context fired.
type Job struct {
	ctx     context.Context
	pri     int
	seq     uint64 // FIFO tie-break within a priority level
	fn      func(context.Context) error
	cleanup func() // run exactly once: after fn, or when the job is dropped
	done    chan struct{}
	err     error
}

// Wait blocks until the job completes (returning its error) or the job's
// context fires first (returning the context error; the job itself may
// still be dequeued and discarded later). Completion wins ties: a job
// that finished as its deadline fired reports its real outcome.
func (j *Job) Wait() error {
	select {
	case <-j.done:
		return j.err
	case <-j.ctx.Done():
	}
	select {
	case <-j.done:
		return j.err
	default:
		return j.ctx.Err()
	}
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
	mu      sync.Mutex
	cond    *sync.Cond
	queue   jobHeap
	maxQ    int
	closed  bool
	seq     uint64
	running int
	wg      sync.WaitGroup

	workers   int
	submitted uint64
	completed uint64
	canceled  uint64
	rejected  uint64
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
	s := &Scheduler{maxQ: depth, workers: workers}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// Submit enqueues fn at the given priority (higher runs first) and returns
// the job. fn receives ctx and should honor its cancellation.
func (s *Scheduler) Submit(ctx context.Context, priority int, fn func(context.Context) error) (*Job, error) {
	return s.SubmitJob(ctx, priority, fn, nil)
}

// SubmitJob is Submit with a cleanup hook the scheduler guarantees to run
// exactly once — after fn returns, or when the job is dropped because its
// context was already canceled. Use it to release resources (e.g. a
// registry handle) whose lifetime must cover the job, not the submitter.
func (s *Scheduler) SubmitJob(ctx context.Context, priority int, fn func(context.Context) error, cleanup func()) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.queue.Len() >= s.maxQ {
		s.rejected++
		return nil, ErrQueueFull
	}
	s.seq++
	j := &Job{ctx: ctx, pri: priority, seq: s.seq, fn: fn, cleanup: cleanup, done: make(chan struct{})}
	heap.Push(&s.queue, j)
	s.submitted++
	s.cond.Signal()
	return j, nil
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
		j := heap.Pop(&s.queue).(*Job)
		if err := j.ctx.Err(); err != nil {
			j.err = err
			s.canceled++
			close(j.done)
			s.mu.Unlock()
			if j.cleanup != nil {
				j.cleanup()
			}
			continue
		}
		s.running++
		s.mu.Unlock()

		j.err = j.fn(j.ctx)
		close(j.done)
		if j.cleanup != nil {
			j.cleanup()
		}

		s.mu.Lock()
		s.running--
		s.completed++
		s.mu.Unlock()
	}
}

// Close drains the queue (already-submitted jobs still run) and stops the
// workers. Submit after Close fails with ErrClosed.
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
	return SchedulerStats{
		Workers:   s.workers,
		Queued:    s.queue.Len(),
		Running:   s.running,
		Submitted: s.submitted,
		Completed: s.completed,
		Canceled:  s.canceled,
		Rejected:  s.rejected,
	}
}

// jobHeap orders jobs by priority descending, then submission order.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].pri != h[j].pri {
		return h[i].pri > h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
