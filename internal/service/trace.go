package service

import (
	"fmt"
	"time"
)

// TraceSpan is one timed section of a job's timeline, in milliseconds
// relative to the job's submission.
type TraceSpan struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"startMs"`
	DurMs   float64 `json:"durMs"`
}

// TracePhase aggregates every occurrence of one span name.
type TracePhase struct {
	Count   uint64  `json:"count"`
	TotalMs float64 `json:"totalMs"`
}

// TraceInfo is the wire form of GET /v1/jobs/{id}/trace: the phase
// timeline one job recorded on its way through the stack — queue wait,
// cache lookup/store, and one span per solver superstep (path joins,
// cycle joins, table merges, per-vertex joins). Spans on a serial job
// never nest, so the per-phase totals sum to at most WallMs; a job
// running trials in parallel overlaps solver spans across workers, and
// its totals measure aggregate worker time instead. Coalesced jobs share
// their flight's trace; cache-replayed jobs carry a single cacheReplay
// span. The span list is capped (DroppedSpans counts the overflow); the
// phase aggregates stay exact past the cap.
type TraceInfo struct {
	ID           string                `json:"id"`
	State        JobState              `json:"state"`
	WallMs       float64               `json:"wallMs"`
	DroppedSpans int                   `json:"droppedSpans,omitempty"`
	Spans        []TraceSpan           `json:"spans"`
	Phases       map[string]TracePhase `json:"phases"`
}

// JobTrace returns a job's recorded phase timeline. It fails with
// ErrUnknownJob for unknown (or expired) ids. The trace is live: a
// running job's snapshot grows between calls.
func (s *Service) JobTrace(id string) (TraceInfo, error) {
	j, ok := s.jobs.get(id)
	if !ok {
		return TraceInfo{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	info := s.jobs.snapshot(j)
	out := TraceInfo{
		ID:     info.ID,
		State:  info.State,
		Spans:  []TraceSpan{},
		Phases: map[string]TracePhase{},
	}
	if info.FinishedAt != nil {
		out.WallMs = info.ElapsedMS
	} else {
		out.WallMs = ms(time.Since(info.CreatedAt))
	}
	// j.tr is written before the job is published and never reassigned,
	// so reading it outside the manager mutex is safe.
	snap := j.tr.Snapshot()
	out.DroppedSpans = snap.Dropped
	for _, sp := range snap.Spans {
		out.Spans = append(out.Spans, TraceSpan{
			Name:    sp.Name,
			StartMs: ms(sp.Start),
			DurMs:   ms(sp.Dur),
		})
	}
	for name, p := range snap.Phases {
		out.Phases[name] = TracePhase{Count: p.Count, TotalMs: ms(p.Total)}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
