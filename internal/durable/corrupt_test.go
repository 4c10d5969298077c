package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fixture records a small WAL (three runs, one job) and returns its raw
// bytes plus the per-record frame boundaries, so corruption tests can cut
// and flip at precise offsets.
func fixture(t testing.TB) ([]byte, []int64) {
	t.Helper()
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var bounds []int64
	for i, app := range []func(){
		func() { l.AppendRun(testRun(1, 3)) },
		func() { l.AppendRun(testRun(2, 5)) },
		func() { l.AppendJob(testJob("j1")) },
		func() { l.AppendRun(testRun(3, 2)) },
	} {
		app()
		l.Flush()
		if s := l.Stats(); s.WalBytes == 0 {
			t.Fatalf("record %d not written", i)
		}
		bounds = append(bounds, l.Stats().WalBytes)
	}
	l.Close()
	b, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(b)) != bounds[len(bounds)-1] {
		t.Fatalf("wal is %d bytes, stats said %d", len(b), bounds[len(bounds)-1])
	}
	return b, bounds
}

// replayBytes writes raw bytes as a WAL in a fresh dir and opens it.
func replayBytes(t testing.TB, b []byte) (*Log, State) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), b, 0o644); err != nil {
		t.Fatal(err)
	}
	l, st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open on corrupt wal errored (must truncate, never fail): %v", err)
	}
	return l, st
}

// wantPrefix maps a frame-boundary index to the records replay must
// recover when everything past that boundary is damaged.
func wantPrefix(n int) ([]RunRecord, []JobRecord) {
	runs := []RunRecord{testRun(1, 3), testRun(2, 5), testRun(3, 2)}
	switch {
	case n <= 0:
		return nil, nil
	case n == 1:
		return runs[:1], nil
	case n == 2:
		return runs[:2], nil
	case n == 3:
		return runs[:2], []JobRecord{testJob("j1")}
	}
	return runs, []JobRecord{testJob("j1")}
}

// TestTruncatedTail cuts the WAL at every frame-straddling position
// around each boundary (plus a byte-by-byte sweep of the first frame) and
// asserts replay recovers exactly the complete-frame prefix, truncates
// the torn tail on disk, and counts the dropped bytes.
func TestTruncatedTail(t *testing.T) {
	b, bounds := fixture(t)
	cuts := []int64{0, 1, 4, 7}
	for _, bd := range bounds {
		cuts = append(cuts, bd-1, bd, bd+3)
	}
	for _, cut := range cuts {
		if cut < 0 || cut > int64(len(b)) {
			continue
		}
		l, st := replayBytes(t, b[:cut])
		frames := 0
		for _, bd := range bounds {
			if bd <= cut {
				frames++
			}
		}
		wr, wj := wantPrefix(frames)
		if !reflect.DeepEqual(st.Runs, wr) || !reflect.DeepEqual(st.Jobs, wj) {
			t.Errorf("cut@%d: replayed %d runs/%d jobs, want %d/%d",
				cut, len(st.Runs), len(st.Jobs), len(wr), len(wj))
		}
		validBytes := int64(0)
		if frames > 0 {
			validBytes = bounds[frames-1]
		}
		if st.TruncatedBytes != cut-validBytes {
			t.Errorf("cut@%d: TruncatedBytes = %d, want %d", cut, st.TruncatedBytes, cut-validBytes)
		}
		if got := l.Stats().WalBytes; got != validBytes {
			t.Errorf("cut@%d: wal not truncated to valid prefix: %d bytes, want %d", cut, got, validBytes)
		}
		l.Close()
	}
}

// TestBitFlippedTail flips one byte inside the final frame at every
// offset: the CRC must reject the frame, replay keeps the prefix, and the
// damaged tail is dropped.
func TestBitFlippedTail(t *testing.T) {
	b, bounds := fixture(t)
	lastStart := bounds[len(bounds)-2]
	for off := lastStart; off < int64(len(b)); off++ {
		mut := append([]byte(nil), b...)
		mut[off] ^= 0x40
		l, st := replayBytes(t, mut)
		wr, wj := wantPrefix(len(bounds) - 1)
		// A flip in the length prefix may also masquerade as a longer
		// frame; either way nothing past the prefix may survive.
		if !reflect.DeepEqual(st.Runs, wr) || !reflect.DeepEqual(st.Jobs, wj) {
			t.Errorf("flip@%d: replay diverged from the undamaged prefix", off)
		}
		if st.TruncatedBytes == 0 {
			t.Errorf("flip@%d: no bytes reported dropped", off)
		}
		l.Close()
	}
}

// TestBitFlippedMiddle damages an interior frame: replay stops at the
// last good record before it — later intact frames are unreachable
// (append-only logs have no resync marker) and must be dropped, not
// misparsed.
func TestBitFlippedMiddle(t *testing.T) {
	b, bounds := fixture(t)
	mut := append([]byte(nil), b...)
	mut[bounds[0]+frameHeader+2] ^= 0x01 // inside frame 2's payload
	l, st := replayBytes(t, mut)
	defer l.Close()
	wr, wj := wantPrefix(1)
	if !reflect.DeepEqual(st.Runs, wr) || !reflect.DeepEqual(st.Jobs, wj) {
		t.Errorf("mid-flip: replayed %d runs/%d jobs, want 1/0", len(st.Runs), len(st.Jobs))
	}
	if st.TruncatedBytes != int64(len(b))-bounds[0] {
		t.Errorf("mid-flip: TruncatedBytes = %d, want %d", st.TruncatedBytes, int64(len(b))-bounds[0])
	}
}

// TestAppendAfterTruncation: after replaying a torn WAL, fresh appends
// extend the valid prefix and the next replay sees old prefix + new
// records — the recovery path is not a dead end.
func TestAppendAfterTruncation(t *testing.T) {
	b, bounds := fixture(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), b[:bounds[1]+5], 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	l.AppendRun(testRun(9, 4))
	l.Close()
	l2, st := openT(t, dir, Options{})
	defer l2.Close()
	want := []RunRecord{testRun(1, 3), testRun(2, 5), testRun(9, 4)}
	if !reflect.DeepEqual(st.Runs, want) {
		t.Errorf("post-recovery appends lost: %d runs, want 3", len(st.Runs))
	}
	if st.TruncatedBytes != 0 {
		t.Errorf("second replay still sees torn bytes: %d", st.TruncatedBytes)
	}
}

// FuzzWALReplay feeds arbitrary bytes as a WAL: replay must never panic,
// must truncate to a valid prefix, and a second replay of the truncated
// file must be clean and identical.
func FuzzWALReplay(f *testing.F) {
	b, bounds := fixture(f)
	f.Add(b)
	f.Add(b[:bounds[1]+3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), data, 0o644); err != nil {
			t.Skip()
		}
		l, st, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open errored on arbitrary bytes: %v", err)
		}
		valid := l.Stats().WalBytes
		if valid+st.TruncatedBytes != int64(len(data)) {
			t.Fatalf("valid %d + truncated %d != input %d", valid, st.TruncatedBytes, len(data))
		}
		l.Close()
		l2, st2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("re-Open errored: %v", err)
		}
		if st2.TruncatedBytes != 0 {
			t.Fatalf("truncated file still replays %d torn bytes", st2.TruncatedBytes)
		}
		if !reflect.DeepEqual(st2.Runs, st.Runs) || !reflect.DeepEqual(st2.Jobs, st.Jobs) {
			t.Fatal("second replay diverges from first")
		}
		l2.Close()
	})
}
