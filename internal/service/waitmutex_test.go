package service

import (
	"testing"
	"time"
)

// TestWaitMutexCountsContention holds the lock while another goroutine
// blocks on it, and checks the wait is recorded. Whether a particular
// attempt contends is up to the scheduler, so the experiment retries
// until one does.
func TestWaitMutexCountsContention(t *testing.T) {
	var m waitMutex
	for attempt := 0; attempt < 100 && m.wait().Waits == 0; attempt++ {
		m.Lock()
		done := make(chan struct{})
		go func() {
			m.Lock()
			m.Unlock()
			close(done)
		}()
		time.Sleep(2 * time.Millisecond) // let the goroutine reach the blocked Lock
		m.Unlock()
		<-done
	}
	if w := m.wait(); w.Waits == 0 {
		t.Error("contended Lock never recorded a wait")
	}
}
