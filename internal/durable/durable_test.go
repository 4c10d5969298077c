package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/coloring"
	"repro/internal/core"
)

// testRun builds a deterministic RunRecord for stream seed with n trials:
// every field populated, so round-trip mismatches can't hide in zeros.
func testRun(seed int64, n int) RunRecord {
	r := RunRecord{
		Graph:     0xdeadbeef ^ uint64(seed),
		Query:     fmt.Sprintf("k5:sig%d", seed),
		Algorithm: 1,
		Backend:   "parallel",
		Seed:      seed,
		Ranks:     4,
	}
	for i := 0; i < n; i++ {
		r.Counts = append(r.Counts, uint64(seed)*1000+uint64(i))
		r.Stats = append(r.Stats, core.Stats{
			Backend: "parallel", Workers: 4, MaxLoad: int64(i + 1),
			AvgLoad: 0.25 * float64(i), TotalLoad: int64(seed) + int64(i),
			Messages: int64(i * 7), Supersteps: int64(i + 2),
			Loads: []int64{int64(i), int64(i) + 1},
		})
	}
	return r
}

func testJob(id string) JobRecord {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return JobRecord{
		ID: id, State: "done", Graph: "enron", Query: "glet1",
		Cached: true, TrialsTotal: 3, TrialsDone: 3,
		Created: now, Started: now.Add(time.Millisecond),
		Finished: now.Add(time.Second), Expires: now.Add(time.Hour),
		Estimate: &coloring.Estimate{Graph: "enron", Query: "glet1",
			Trials: 3, Counts: []uint64{4418, 8064, 1442}, Matches: 120868.05},
	}
}

func openT(t *testing.T, dir string, opts Options) (*Log, State) {
	t.Helper()
	opts.Dir = dir
	l, st, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, st
}

// TestRoundTrip is the core contract: everything appended before Close is
// replayed bit-identically on the next Open.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, st := openT(t, dir, Options{Fsync: FsyncAlways})
	if len(st.Runs) != 0 || len(st.Jobs) != 0 {
		t.Fatalf("fresh dir replayed state: %+v", st)
	}
	want := []RunRecord{testRun(1, 3), testRun(2, 5), testRun(3, 1)}
	for _, r := range want {
		l.AppendRun(r)
	}
	wantJobs := []JobRecord{testJob("j1"), testJob("j2")}
	for _, j := range wantJobs {
		l.AppendJob(j)
	}
	l.Close()

	l2, st2 := openT(t, dir, Options{})
	defer l2.Close()
	if !reflect.DeepEqual(st2.Runs, want) {
		t.Errorf("replayed runs diverge:\n got %+v\nwant %+v", st2.Runs, want)
	}
	if !reflect.DeepEqual(st2.Jobs, wantJobs) {
		t.Errorf("replayed jobs diverge:\n got %+v\nwant %+v", st2.Jobs, wantJobs)
	}
	if st2.TruncatedBytes != 0 {
		t.Errorf("clean log replayed with TruncatedBytes = %d", st2.TruncatedBytes)
	}
	if s := l2.Stats(); s.ReplayedRuns != 3 || s.ReplayedJobs != 2 {
		t.Errorf("stats = %+v, want 3 replayed runs / 2 jobs", s)
	}
}

// TestReplayMergesLongestWins: repeated records over one trial stream
// merge to the longest (the cache's extension semantics), and terminal
// job records are first-wins per id.
func TestReplayMergesLongestWins(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	l.AppendRun(testRun(7, 2))
	l.AppendRun(testRun(7, 6)) // extension: same stream, more trials
	l.AppendRun(testRun(7, 4)) // shorter re-append: must not shrink
	first := testJob("j9")
	l.AppendJob(first)
	dup := testJob("j9")
	dup.State = "failed" // corrupt duplicate; replay must keep the first
	l.AppendJob(dup)
	l.Close()

	l2, st := openT(t, dir, Options{})
	defer l2.Close()
	if len(st.Runs) != 1 || !reflect.DeepEqual(st.Runs[0], testRun(7, 6)) {
		t.Errorf("merged runs = %+v, want the 6-trial record alone", st.Runs)
	}
	if len(st.Jobs) != 1 || !reflect.DeepEqual(st.Jobs[0], first) {
		t.Errorf("merged jobs = %+v, want the first j9 record alone", st.Jobs)
	}
}

// TestCompaction: past the size threshold the log snapshots the live
// state and truncates the WAL; a subsequent Open replays snapshot + WAL
// to the same state.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	// The "live state" the compactor snapshots: the canonical merge of
	// everything appended, exactly what a real service would export.
	var mu sync.Mutex
	live := map[int64]RunRecord{}
	snapshot := func() ([]RunRecord, []JobRecord) {
		mu.Lock()
		defer mu.Unlock()
		var runs []RunRecord
		for s := int64(0); s < 64; s++ {
			if r, ok := live[s]; ok {
				runs = append(runs, r)
			}
		}
		return runs, []JobRecord{testJob("j1")}
	}
	l, _ := openT(t, dir, Options{CompactBytes: 1, Snapshot: snapshot})
	for s := int64(0); s < 16; s++ {
		r := testRun(s, 3)
		mu.Lock()
		live[s] = r
		mu.Unlock()
		l.AppendRun(r)
	}
	l.Flush()
	st := l.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction ran: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no snapshot file after compaction: %v", err)
	}
	l.Close()

	l2, got := openT(t, dir, Options{})
	defer l2.Close()
	wantRuns, wantJobs := snapshot()
	if !reflect.DeepEqual(got.Runs, wantRuns) {
		t.Errorf("post-compaction replay runs diverge:\n got %d records\nwant %d", len(got.Runs), len(wantRuns))
	}
	if !reflect.DeepEqual(got.Jobs, wantJobs) {
		t.Errorf("post-compaction replay jobs = %+v, want %+v", got.Jobs, wantJobs)
	}
}

// TestConcurrentAppendDuringCompaction hammers the append path from many
// goroutines while tiny CompactBytes forces compactions to interleave
// with the writes; run under -race this is the data-race gate for the
// queue/writer/compactor interplay. Afterward every stream must replay
// at its longest appended length.
func TestConcurrentAppendDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	const streams, perStream = 8, 20
	var mu sync.Mutex
	live := map[int64]RunRecord{}
	snapshot := func() ([]RunRecord, []JobRecord) {
		mu.Lock()
		defer mu.Unlock()
		var runs []RunRecord
		for s := int64(0); s < streams; s++ {
			if r, ok := live[s]; ok {
				runs = append(runs, r)
			}
		}
		return runs, nil
	}
	l, _ := openT(t, dir, Options{CompactBytes: 1, Fsync: FsyncNever, Snapshot: snapshot})
	var wg sync.WaitGroup
	for s := int64(0); s < streams; s++ {
		wg.Add(1)
		go func(s int64) {
			defer wg.Done()
			for n := 1; n <= perStream; n++ {
				r := testRun(s, n)
				mu.Lock()
				if len(live[s].Counts) < n {
					live[s] = r
				}
				mu.Unlock()
				l.AppendRun(r)
			}
		}(s)
	}
	wg.Wait()
	l.Close()

	l2, st := openT(t, dir, Options{})
	defer l2.Close()
	if len(st.Runs) != streams {
		t.Fatalf("replayed %d streams, want %d", len(st.Runs), streams)
	}
	for _, r := range st.Runs {
		if len(r.Counts) != perStream {
			t.Errorf("stream seed=%d replayed %d trials, want %d", r.Seed, len(r.Counts), perStream)
		}
		if !reflect.DeepEqual(r, testRun(r.Seed, perStream)) {
			t.Errorf("stream seed=%d replay diverges from appended record", r.Seed)
		}
	}
}

// TestBadPolicyAndMissingDir cover the configuration errors Open does
// surface (as opposed to corruption, which it never fails on).
func TestBadPolicyAndMissingDir(t *testing.T) {
	if _, _, err := Open(Options{}); err == nil {
		t.Error("Open without Dir succeeded")
	}
	if _, _, err := Open(Options{Dir: t.TempDir(), Fsync: "sometimes"}); err == nil {
		t.Error("Open with bogus fsync policy succeeded")
	}
}

// TestAppendAfterClose: appends after Close are dropped, not panics.
func TestAppendAfterClose(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{})
	l.Close()
	l.AppendRun(testRun(1, 1)) // must not panic or block
	l.Close()                  // double close must be safe
}

// freshFrame frames q as a gob.Encoder made for that record alone writes
// it: the layout replay reads, each payload self-describing.
func freshFrame(t *testing.T, q *queued) []byte {
	t.Helper()
	var payload bytes.Buffer
	payload.WriteByte(q.kind)
	enc := gob.NewEncoder(&payload)
	var err error
	if q.kind == kindRun {
		err = enc.Encode(&q.run)
	} else {
		err = enc.Encode(&q.job)
	}
	if err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(payload.Len()))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload.Bytes(), crcTable))
	return append(hdr[:], payload.Bytes()...)
}

// TestFramesAreFreshEncodings: a frame written by the writer's long-lived
// encoders is byte for byte the frame a new encoder per record writes,
// whatever the record holds and in whatever order the kinds come, and a
// warm frame costs a few allocations, not a new encoder's dozens.
func TestFramesAreFreshEncodings(t *testing.T) {
	failed := testJob("j3")
	failed.State, failed.Error, failed.Estimate = "failed", "deadline exceeded", nil
	records := []queued{
		{kind: kindJob, job: testJob("j1")},
		{kind: kindRun, run: testRun(1, 3)},
		{kind: kindRun, run: RunRecord{}},
		{kind: kindJob, job: failed},
		{kind: kindRun, run: testRun(2, 0)},
		{kind: kindJob, job: JobRecord{}},
		{kind: kindRun, run: testRun(3, 9)},
		{kind: kindJob, job: testJob("j4")},
	}
	var fr frames
	for i := range records {
		var buf bytes.Buffer
		if err := fr.appendFrame(&buf, &records[i]); err != nil {
			t.Fatal(err)
		}
		if want := freshFrame(t, &records[i]); !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("record %d (kind %d): frame differs from a fresh encoder's\n got %x\nwant %x", i, records[i].kind, buf.Bytes(), want)
		}
	}
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		fr.appendFrame(&buf, &records[1])
		fr.appendFrame(&buf, &records[0])
	})
	if allocs > 20 { // a new encoder a record: about 70
		t.Errorf("two warm frames allocate %.0f times, want ≤ 20", allocs)
	}
}

// TestRunRecordBytesAreFrozen pins one run record's bytes in the log —
// framed by a fresh encoder and by a warm one — and on the handoff wire:
// a data dir an earlier build wrote must replay, and a peer on an earlier
// build must read the handoff body. The literals are an earlier build's
// output; moving a field, its type or its tag moves them.
func TestRunRecordBytesAreFrozen(t *testing.T) {
	rec := RunRecord{Graph: 0xfeedfacecafebeef, Query: "k3:6:5:3", Algorithm: 2, Backend: "sim", Seed: -7, Ranks: 4,
		Counts: []uint64{3, 1 << 40},
		Stats: []core.Stats{{Backend: "sim", Workers: 4, MaxLoad: 9, AvgLoad: 2.25, TotalLoad: 30, Messages: 12,
			Steals: 1, Supersteps: 3, TableEntries: 17, Loads: []int64{9, 7, 8, 6}}, {}}}
	const frame = "" +
		"0000019d7f7ca83e016e7f0301010952756e5265636f726401ff800001080105" +
		"477261706801060001055175657279010c000109416c676f726974686d010400" +
		"01074261636b656e64010c00010453656564010400010552616e6b7301040001" +
		"06436f756e747301ff82000105537461747301ff8800000016ff81020101085b" +
		"5d75696e74363401ff8200010600001bff870201010c5b5d636f72652e537461" +
		"747301ff880001ff840000ff94ff8303010105537461747301ff8400010a0107" +
		"4261636b656e64010c000107576f726b65727301040001074d61784c6f616401" +
		"040001074176674c6f61640108000109546f74616c4c6f616401040001084d65" +
		"7373616765730104000106537465616c73010400010a53757065727374657073" +
		"010400010c5461626c65456e747269657301040001054c6f61647301ff860000" +
		"0015ff85020101075b5d696e74363401ff8600010400004dff8001f8feedface" +
		"cafebeef01086b333a363a353a330104010373696d010d0108010203fa010000" +
		"0000000102010373696d0108011201fe0240013c01180102010601220104120e" +
		"100c000000"
	const wire = `{"graph":18369614221190020847,"query":"k3:6:5:3","algorithm":2,"backend":"sim","seed":-7,"ranks":4,"counts":[3,1099511627776],"stats":[{"Backend":"sim","Workers":4,"MaxLoad":9,"AvgLoad":2.25,"TotalLoad":30,"Messages":12,"Steals":1,"Supersteps":3,"TableEntries":17,"Loads":[9,7,8,6]},{"Backend":"","Workers":0,"MaxLoad":0,"AvgLoad":0,"TotalLoad":0,"Messages":0,"Steals":0,"Supersteps":0,"TableEntries":0,"Loads":null}]}`
	var fr frames
	for _, pass := range []string{"cold", "warm"} {
		var buf bytes.Buffer
		if err := fr.appendFrame(&buf, &queued{kind: kindRun, run: rec}); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != frame {
			t.Errorf("%s frame moved:\n got %s\nwant %s", pass, got, frame)
		}
	}
	if b, err := json.Marshal(rec); err != nil || string(b) != wire {
		t.Errorf("handoff JSON moved (err %v):\n got %s\nwant %s", err, b, wire)
	}
}
