// Package durable is the serving tier's persistence layer: an
// append-only, CRC-framed record log that survives process death. It
// persists exactly two record kinds — accumulated trial runs (the
// trial-granular result cache's entries) and terminal jobs — and replays
// them on boot, so a restarted server serves warm-cache hits and keeps
// finished jobs addressable without recomputing anything.
//
// # Design
//
// Appends are asynchronous: callers enqueue records on an unbounded
// in-memory queue and a single writer goroutine encodes, frames, and
// writes them, so the serving hot path never blocks on disk. The queue
// depth is exported as lag. Durability is tunable per fsync policy:
// "always" syncs after every drained batch (group commit), "interval"
// syncs on a timer, "never" leaves it to the OS.
//
// Each record is framed as
//
//	[4-byte BE length][4-byte BE CRC32-C][payload]
//
// where the payload is one kind byte followed by the record's gob
// encoding, the length counts the payload, and the CRC covers the
// payload. Replay consumes the longest valid prefix: a torn, truncated,
// or bit-flipped tail fails its length bound, CRC, or decode and stops
// the replay there — never fatally — and the file is truncated back to
// the valid prefix so future appends extend clean state. The same
// deterministic-trials property that makes the result cache sound makes
// replay idempotent: runs merge longest-wins per trial stream and
// terminal job records are immutable per id, so replaying a record twice
// (snapshot + un-truncated WAL after a mid-compaction crash) changes
// nothing.
//
// # Compaction
//
// When the WAL grows past Options.CompactBytes the writer snapshots the
// live state (pulled from Options.Snapshot, so the log never mirrors the
// cache in memory) into a sibling file — written whole, synced, and
// renamed into place — then truncates the WAL. Replay loads the snapshot
// first, then the WAL on top. A crash at any point leaves either the old
// snapshot + old WAL or the new snapshot + a WAL whose records the
// snapshot already covers; both replay to the same state.
package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coloring"
	"repro/internal/core"
)

// Fsync policies.
const (
	FsyncAlways   = "always"   // sync after every drained batch
	FsyncInterval = "interval" // sync on a timer (Options.FsyncEvery)
	FsyncNever    = "never"    // never sync explicitly; the OS decides
)

// File names inside the data dir.
const (
	walName  = "wal.log"
	snapName = "snapshot.db"
	tmpName  = "snapshot.tmp"
)

// Record kinds (the payload's first byte).
const (
	kindRun byte = 1
	kindJob byte = 2
)

// frameHeader is the per-record framing overhead: length + CRC.
const frameHeader = 8

// maxRecord bounds one record's payload (256 MiB): a corrupt length
// prefix must terminate replay, not drive a huge allocation.
const maxRecord = 1 << 28

// crcTable is CRC32-Castagnoli, the polynomial with hardware support on
// both amd64 and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// RunRecord is one trial stream's accumulated state, in the log and on
// the wire: the stream identity (mirroring the service cache's TrialKey
// field for field) and the per-trial counts and engine stats. The log
// gob-encodes it (field names; the tags are not read), the cluster handoff
// body JSON-encodes it under the tags. Trials over one stream are
// deterministic, so a longer record strictly extends a shorter one and
// replay merges records longest-wins.
type RunRecord struct {
	Graph     uint64       `json:"graph"` // data-graph fingerprint
	Query     string       `json:"query"` // canonical query signature
	Algorithm int          `json:"algorithm"`
	Backend   string       `json:"backend"`
	Seed      int64        `json:"seed"`
	Ranks     int          `json:"ranks"`
	Counts    []uint64     `json:"counts"`
	Stats     []core.Stats `json:"stats"`
}

// streamKey identifies a RunRecord's trial stream for the replay merge.
type streamKey struct {
	graph     uint64
	query     string
	algorithm int
	backend   string
	seed      int64
	ranks     int
}

func (r RunRecord) key() streamKey {
	return streamKey{graph: r.Graph, query: r.Query, algorithm: r.Algorithm,
		backend: r.Backend, seed: r.Seed, ranks: r.Ranks}
}

// JobRecord persists one terminal job: everything GET /v1/jobs/{id} and
// /v1/jobs/{id}/result need to answer after a restart. Terminal jobs
// never change, so replay keeps the first record seen per id.
type JobRecord struct {
	ID          string
	State       string // done | failed | canceled
	Graph       string
	Query       string
	Cached      bool
	Coalesced   bool
	TrialsTotal int
	TrialsDone  int
	Error       string
	Created     time.Time
	Started     time.Time
	Finished    time.Time
	Expires     time.Time
	Estimate    *coloring.Estimate // nil unless State is done
}

// Options configures a Log.
type Options struct {
	// Dir is the data directory (created if missing). Required.
	Dir string
	// Fsync is the sync policy: FsyncAlways, FsyncInterval (default), or
	// FsyncNever.
	Fsync string
	// FsyncEvery is the interval policy's cadence (≤ 0 means 100ms).
	FsyncEvery time.Duration
	// CompactBytes triggers snapshot+truncate once the WAL exceeds it
	// (≤ 0 means 64 MiB). Compaction also needs Snapshot.
	CompactBytes int64
	// Snapshot supplies the full live state for compaction, so the log
	// does not mirror it in memory. Nil disables compaction.
	Snapshot func() ([]RunRecord, []JobRecord)
	// Logger receives replay and write diagnostics. Nil means
	// slog.Default().
	Logger *slog.Logger
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, fmt.Errorf("durable: Options.Dir is required")
	}
	switch o.Fsync {
	case "":
		o.Fsync = FsyncInterval
	case FsyncAlways, FsyncInterval, FsyncNever:
	default:
		return o, fmt.Errorf("durable: bad fsync policy %q (want %s, %s, or %s)",
			o.Fsync, FsyncAlways, FsyncInterval, FsyncNever)
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 100 * time.Millisecond
	}
	if o.CompactBytes <= 0 {
		o.CompactBytes = 64 << 20
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o, nil
}

// State is the replayed boot state: runs merged longest-wins per trial
// stream and terminal jobs deduplicated by id, both in first-appearance
// order (for jobs, that is terminal order — the order they finished in).
type State struct {
	Runs []RunRecord
	Jobs []JobRecord
	// TruncatedBytes counts torn or corrupt bytes dropped from the WAL
	// tail during replay.
	TruncatedBytes int64
}

// Stats are the log's observability counters. Lag is the append queue
// depth: records accepted but not yet durably written.
type Stats struct {
	Appends        uint64 `json:"appends"`
	Lag            int    `json:"lag"`
	ReplayedRuns   uint64 `json:"replayedRuns"`
	ReplayedJobs   uint64 `json:"replayedJobs"`
	TruncatedBytes int64  `json:"truncatedBytes"`
	Compactions    uint64 `json:"compactions"`
	Fsyncs         uint64 `json:"fsyncs"`
	WriteErrors    uint64 `json:"writeErrors"`
	WalBytes       int64  `json:"walBytes"`
	SnapshotBytes  int64  `json:"snapshotBytes"`
}

// queued is one record accepted for writing but not yet encoded.
type queued struct {
	kind byte
	run  RunRecord
	job  JobRecord
}

// Log is the append-only record log. Appends are asynchronous and safe
// for concurrent use; replay happens once, inside Open, before any
// append is accepted.
type Log struct {
	opts   Options
	logger *slog.Logger

	mu     sync.Mutex
	queue  []queued
	closed bool
	wake   chan struct{} // 1-buffered writer doorbell
	done   chan struct{} // writer exited

	f        *os.File // WAL, append-only; owned by the writer goroutine after Open
	walBytes atomic.Int64
	snapshot atomic.Int64 // snapshot file size

	// pendingBatch counts records drained from the queue but not yet
	// written, so Flush and Stats observe the full in-flight set.
	pendingBatch atomic.Int64

	appends      atomic.Uint64
	replayedRuns uint64 // written once in Open, before the writer starts
	replayedJobs uint64
	truncated    int64
	compactions  atomic.Uint64
	fsyncs       atomic.Uint64
	writeErrors  atomic.Uint64
}

// Open replays the data dir's snapshot and WAL, truncates any torn or
// corrupt WAL tail, and returns the log (ready for appends) together
// with the replayed state. The caller installs the state before serving
// traffic; Open itself never fails on corruption — only on real I/O or
// configuration errors.
func Open(opts Options) (*Log, State, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, State{}, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, State{}, fmt.Errorf("durable: data dir: %w", err)
	}
	l := &Log{
		opts:   opts,
		logger: opts.Logger,
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}

	st := newReplayState()
	// Snapshot first: it is the compacted base the WAL extends. It was
	// written whole and renamed into place, so corruption means disk
	// trouble — replay the valid prefix and keep going, same as the WAL.
	snapPath := filepath.Join(opts.Dir, snapName)
	if b, err := os.ReadFile(snapPath); err == nil {
		valid := st.replay(b)
		if valid < int64(len(b)) {
			l.truncated += int64(len(b)) - valid
			l.logger.Warn("durable: snapshot tail corrupt; replayed valid prefix",
				"path", snapPath, "validBytes", valid, "dropped", int64(len(b))-valid)
		}
		l.snapshot.Store(int64(len(b)))
	} else if !os.IsNotExist(err) {
		return nil, State{}, fmt.Errorf("durable: snapshot: %w", err)
	}

	walPath := filepath.Join(opts.Dir, walName)
	if b, err := os.ReadFile(walPath); err == nil {
		valid := st.replay(b)
		if valid < int64(len(b)) {
			// Torn tail (crash mid-append) or corruption: drop it so the
			// next append extends clean state instead of garbage.
			l.truncated += int64(len(b)) - valid
			l.logger.Warn("durable: wal tail torn or corrupt; truncating",
				"path", walPath, "validBytes", valid, "dropped", int64(len(b))-valid)
			if err := os.Truncate(walPath, valid); err != nil {
				return nil, State{}, fmt.Errorf("durable: truncating wal tail: %w", err)
			}
		}
		l.walBytes.Store(valid)
	} else if !os.IsNotExist(err) {
		return nil, State{}, fmt.Errorf("durable: wal: %w", err)
	}

	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, State{}, fmt.Errorf("durable: opening wal: %w", err)
	}
	l.f = f
	out := st.state()
	out.TruncatedBytes = l.truncated
	l.replayedRuns = uint64(len(out.Runs))
	l.replayedJobs = uint64(len(out.Jobs))
	go l.writer()
	return l, out, nil
}

// AppendRun enqueues one trial run for writing. Non-blocking; a no-op
// after Close.
func (l *Log) AppendRun(r RunRecord) { l.enqueue(queued{kind: kindRun, run: r}) }

// AppendJob enqueues one terminal job for writing. Non-blocking; a no-op
// after Close.
func (l *Log) AppendJob(j JobRecord) { l.enqueue(queued{kind: kindJob, job: j}) }

func (l *Log) enqueue(q queued) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.queue = append(l.queue, q)
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Flush blocks until every record accepted before the call is durably
// written (and synced, under the always policy). Tests and shutdown use
// it; the serving path never does.
func (l *Log) Flush() {
	for {
		l.mu.Lock()
		n := len(l.queue)
		closed := l.closed
		l.mu.Unlock()
		if n == 0 || closed {
			// The writer may still be mid-batch; Sync below in Close
			// covers shutdown, and tests tolerate the final poll.
			if l.pendingBatch.Load() == 0 {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// Close flushes the queue, syncs, and closes the WAL. Appends after
// Close are dropped.
func (l *Log) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return
	}
	l.closed = true
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
	<-l.done
	l.f.Close()
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	lag := len(l.queue) + int(l.pendingBatch.Load())
	l.mu.Unlock()
	return Stats{
		Appends:        l.appends.Load(),
		Lag:            lag,
		ReplayedRuns:   l.replayedRuns,
		ReplayedJobs:   l.replayedJobs,
		TruncatedBytes: l.truncated,
		Compactions:    l.compactions.Load(),
		Fsyncs:         l.fsyncs.Load(),
		WriteErrors:    l.writeErrors.Load(),
		WalBytes:       l.walBytes.Load(),
		SnapshotBytes:  l.snapshot.Load(),
	}
}

// writer is the single goroutine that drains the queue to disk. One
// writer means appends never interleave mid-frame and the fsync policy
// degenerates to simple group commit.
func (l *Log) writer() {
	defer close(l.done)
	var tick *time.Ticker
	var tickC <-chan time.Time
	if l.opts.Fsync == FsyncInterval {
		tick = time.NewTicker(l.opts.FsyncEvery)
		tickC = tick.C
		defer tick.Stop()
	}
	dirty := false
	for {
		select {
		case <-l.wake:
		case <-tickC:
			if dirty {
				l.sync()
				dirty = false
			}
			continue
		}
		for {
			l.mu.Lock()
			batch := l.queue
			l.queue = nil
			closed := l.closed
			// pendingBatch is set under the same lock that empties the
			// queue: at every instant a record is either queued or counted
			// pending until durably written, so Flush cannot observe a gap.
			if len(batch) > 0 {
				l.pendingBatch.Store(int64(len(batch)))
			}
			l.mu.Unlock()
			if len(batch) > 0 {
				l.writeBatch(batch)
				dirty = true
				if l.opts.Fsync == FsyncAlways {
					l.sync()
					dirty = false
				}
				l.maybeCompact()
				// Lag reaches zero only once the batch is written (and,
				// under the always policy, synced) and any compaction it
				// tripped has finished: smoke tests poll lag==0 before
				// kill -9 to know the goldens are durable, and Flush
				// waits on the same signal.
				l.pendingBatch.Store(0)
				continue // re-check: more may have arrived during the write
			}
			if closed {
				if dirty {
					l.sync()
				}
				return
			}
			break
		}
	}
}

// writeBatch encodes and writes one drained batch as a single Write
// call, so a crash tears at most the batch's final partial frame.
func (l *Log) writeBatch(batch []queued) {
	var buf bytes.Buffer
	for i := range batch {
		if err := appendFrame(&buf, &batch[i]); err != nil {
			// Encoding is infallible for these types in practice; a
			// failure here is a programming error worth surfacing loudly.
			l.writeErrors.Add(1)
			l.logger.Error("durable: encoding record", "err", err)
		}
	}
	if buf.Len() == 0 {
		return
	}
	if _, err := l.f.Write(buf.Bytes()); err != nil {
		l.writeErrors.Add(uint64(len(batch)))
		l.logger.Error("durable: wal write failed; records lost", "err", err, "records", len(batch))
		return
	}
	l.walBytes.Add(int64(buf.Len()))
	l.appends.Add(uint64(len(batch)))
}

func (l *Log) sync() {
	if err := l.f.Sync(); err != nil {
		l.writeErrors.Add(1)
		l.logger.Error("durable: fsync failed", "err", err)
		return
	}
	l.fsyncs.Add(1)
}

// appendFrame appends one framed record to buf.
func appendFrame(buf *bytes.Buffer, q *queued) error {
	var payload bytes.Buffer
	payload.WriteByte(q.kind)
	enc := gob.NewEncoder(&payload)
	var err error
	switch q.kind {
	case kindRun:
		err = enc.Encode(&q.run)
	case kindJob:
		err = enc.Encode(&q.job)
	default:
		err = fmt.Errorf("durable: unknown record kind %d", q.kind)
	}
	if err != nil {
		return err
	}
	if payload.Len() > maxRecord {
		return fmt.Errorf("durable: record exceeds %d bytes", maxRecord)
	}
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(payload.Len()))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload.Bytes(), crcTable))
	buf.Write(hdr[:])
	buf.Write(payload.Bytes())
	return nil
}

// maybeCompact snapshots and truncates the WAL once it outgrows the
// threshold. Runs on the writer goroutine, between batches, so no frame
// is ever split across the truncation.
func (l *Log) maybeCompact() {
	if l.opts.Snapshot == nil || l.walBytes.Load() < l.opts.CompactBytes {
		return
	}
	if err := l.compact(); err != nil {
		l.writeErrors.Add(1)
		l.logger.Error("durable: compaction failed; wal keeps growing", "err", err)
	}
}

func (l *Log) compact() error {
	runs, jobs := l.opts.Snapshot()
	tmp := filepath.Join(l.opts.Dir, tmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	for i := range runs {
		if err := appendFrame(&buf, &queued{kind: kindRun, run: runs[i]}); err != nil {
			f.Close()
			return err
		}
	}
	for i := range jobs {
		if err := appendFrame(&buf, &queued{kind: kindJob, job: jobs[i]}); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return err
	}
	// The snapshot must be durably complete before it replaces the old
	// one, and durably *named* before the WAL it subsumes is truncated —
	// a crash between the two replays new snapshot + old WAL, which
	// merges to the same state (replay is idempotent).
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	final := filepath.Join(l.opts.Dir, snapName)
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	syncDir(l.opts.Dir)
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	l.sync()
	l.walBytes.Store(0)
	l.snapshot.Store(int64(buf.Len()))
	l.compactions.Add(1)
	l.logger.Info("durable: compacted",
		"snapshotBytes", buf.Len(), "runs", len(runs), "jobs", len(jobs))
	return nil
}

// syncDir makes a rename durable on filesystems that require a directory
// sync. Best-effort: some platforms reject fsync on directories.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck // best-effort
	d.Close()
}

// replayState accumulates records during Open: runs merged longest-wins
// per stream, jobs deduplicated by id, both in first-appearance order.
type replayState struct {
	runIx  map[streamKey]int
	runs   []RunRecord
	jobIx  map[string]bool
	jobs   []JobRecord
	decBuf bytes.Reader
}

func newReplayState() *replayState {
	return &replayState{runIx: make(map[streamKey]int), jobIx: make(map[string]bool)}
}

// replay consumes frames from b until the first invalid one and applies
// them; it returns the number of valid prefix bytes. Invalid means: a
// length that doesn't fit its bounds or the remaining bytes (torn tail),
// a CRC mismatch (bit rot), a gob decode failure, or an unknown kind
// (version skew) — all of them stop the replay at the last good record.
func (st *replayState) replay(b []byte) int64 {
	var off int64
	for {
		rest := b[off:]
		if len(rest) < frameHeader {
			return off
		}
		n := int(binary.BigEndian.Uint32(rest[0:4]))
		if n < 1 || n > maxRecord || n > len(rest)-frameHeader {
			return off
		}
		payload := rest[frameHeader : frameHeader+n]
		if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(rest[4:8]) {
			return off
		}
		if !st.apply(payload) {
			return off
		}
		off += int64(frameHeader + n)
	}
}

func (st *replayState) apply(payload []byte) bool {
	kind := payload[0]
	st.decBuf.Reset(payload[1:])
	dec := gob.NewDecoder(&st.decBuf)
	switch kind {
	case kindRun:
		var r RunRecord
		if dec.Decode(&r) != nil {
			return false
		}
		k := r.key()
		if i, ok := st.runIx[k]; ok {
			if len(r.Counts) > len(st.runs[i].Counts) {
				st.runs[i] = r
			}
			return true
		}
		st.runIx[k] = len(st.runs)
		st.runs = append(st.runs, r)
	case kindJob:
		var j JobRecord
		if dec.Decode(&j) != nil {
			return false
		}
		if st.jobIx[j.ID] {
			return true // terminal jobs are immutable; first record wins
		}
		st.jobIx[j.ID] = true
		st.jobs = append(st.jobs, j)
	default:
		return false
	}
	return true
}

func (st *replayState) state() State {
	return State{Runs: st.runs, Jobs: st.jobs}
}
