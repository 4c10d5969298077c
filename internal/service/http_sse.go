package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// sseInterval is the polling cadence of the events stream: progress is
// sampled from the job's flight counters at this rate and pushed only
// when it changed, so an idle or queued job costs no bytes between
// heartbeats. A var so tests can tighten it.
var sseInterval = 100 * time.Millisecond

// sseHeartbeatEvery bounds the silence on an open stream: a comment line
// keeps intermediaries from timing the connection out while a job sits
// queued behind a deep backlog.
const sseHeartbeatEvery = 15 * time.Second

// handleJobEvents streams one job's lifecycle as server-sent events,
// replacing the poll loop: a "progress" event (JobProgress JSON — trial
// counts, running mean, running CV) whenever the per-trial progress
// advances, then exactly one terminal event named after the final state
// ("done", "failed", "canceled") carrying the full JobInfo, after which
// the stream closes. A client that disconnects mid-stream just ends the
// handler — the job itself keeps running (cancellation stays an explicit
// DELETE), so a dropped subscriber never dooms another client's
// computation.
func (s *Service) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "service: streaming unsupported by this connection"})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass events through
	w.WriteHeader(http.StatusOK)

	emit := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		// Time the write+flush pair: this is the per-event cost of the SSE
		// fan-out, recorded straight into subgraph_sse_flush_seconds (not
		// onto the job's trace — the stream can outlive the job, and its
		// cost must not count against the job's wall time).
		begin := time.Now()
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false // client gone; the deferred cleanup is the whole fallback
		}
		flusher.Flush()
		s.metrics.sseFlush.Observe(time.Since(begin).Seconds())
		return true
	}
	final := func() {
		info := s.jobs.snapshot(j)
		emit("progress", info.Progress)
		emit(string(info.State), info)
	}

	// Initial snapshot so subscribers see the current position immediately
	// (and a subscriber to an already-finished job gets its terminal event
	// without waiting a tick).
	info := s.jobs.snapshot(j)
	if !emit("progress", info.Progress) {
		return
	}
	if info.State.Terminal() {
		emit(string(info.State), info)
		return
	}
	last := info.Progress

	tick := time.NewTicker(sseInterval)
	defer tick.Stop()
	heartbeat := time.NewTicker(sseHeartbeatEvery)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			// Client disconnected: stop streaming, touch nothing else.
			return
		case <-j.done:
			final()
			return
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-tick.C:
			info := s.jobs.snapshot(j)
			if info.State.Terminal() {
				final()
				return
			}
			if info.Progress != last {
				last = info.Progress
				if !emit("progress", info.Progress) {
					return
				}
			}
		}
	}
}
