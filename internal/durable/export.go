package durable

import (
	"fmt"
	"os"
	"path/filepath"
)

// ReadRuns replays a data directory's snapshot and WAL read-only over
// runs and returns the merged run records (longest-wins per trial stream,
// job records skipped) — the full durable trial state, including streams
// the serving cache has since evicted, plus whatever runs holds that the
// files do not. It is the handoff exporter's source of truth: safe to call
// on a live directory because the replay consumes the longest valid frame
// prefix, so a concurrent append at worst contributes a torn tail that is
// simply not exported yet. The files are never modified.
func ReadRuns(dir string, runs ...RunRecord) ([]RunRecord, error) {
	st := newReplayState()
	for _, r := range runs {
		st.addRun(r)
	}
	for _, name := range []string{snapName, walName} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("durable: reading %s: %w", name, err)
		}
		st.replay(b)
	}
	return st.runs, nil
}
