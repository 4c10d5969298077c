package service

import (
	"sync"
	"sync/atomic"
	"time"
)

// waitMutex is a sync.Mutex that measures its own contention: every Lock
// that could not be satisfied immediately counts as one wait and adds the
// time spent blocked. Every serving structure (registry, cache, job
// manager, singleflight index) sits behind one, so /v1/stats can report
// how much of the serving hot path is lost to lock handoff — the number
// that would justify splitting a lock, should it ever stop being zero.
// The uncontended fast path is a single TryLock, so instrumenting costs
// nothing when there is no contention to observe.
type waitMutex struct {
	mu     sync.Mutex
	waits  atomic.Uint64
	waitNS atomic.Int64
}

func (m *waitMutex) Lock() {
	if m.mu.TryLock() {
		return
	}
	start := time.Now()
	m.mu.Lock()
	m.waits.Add(1)
	m.waitNS.Add(int64(time.Since(start)))
}

func (m *waitMutex) Unlock() { m.mu.Unlock() }

// LockWait is a lock-contention rollup: how many acquisitions blocked,
// and for how long in total.
type LockWait struct {
	Waits  uint64  `json:"lockWaits"`
	WaitMS float64 `json:"lockWaitMs"`
}

func (m *waitMutex) wait() LockWait {
	return LockWait{
		Waits:  m.waits.Load(),
		WaitMS: float64(m.waitNS.Load()) / 1e6,
	}
}
