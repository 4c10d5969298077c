package dist

import (
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/table"
)

// coordinate starts a worker session over net.Pipe and shakes hands with it
// as a coordinator would. served yields what ServeConn returned; the pipe
// closes when the test ends.
func coordinate(t testing.TB, opts WorkerOptions) (coord *conn, served <-chan error) {
	t.Helper()
	coordSide, workerSide := net.Pipe()
	ch := make(chan error, 1)
	go func() { ch <- ServeConn(workerSide, opts) }()
	coord = &conn{c: coordSide}
	t.Cleanup(func() { coordSide.Close() })
	if err := coord.shake(true); err != nil {
		t.Fatal(err)
	}
	return coord, ch
}

// path3Start returns a small graph and a path3 job over it, for ranks
// ranks, as the coordinator encodes it, with the count sim gives.
func path3Start(t testing.TB, ranks int, seed int64) (*graph.Graph, jobStartMsg, uint64) {
	t.Helper()
	g := gen.ErdosRenyi("er", 40, 90, rand.New(rand.NewSource(seed)))
	q := query.MustByName("path3")
	plan, err := core.PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	colors := make([]uint8, g.N())
	for v := range colors {
		colors[v] = uint8(v % q.K)
	}
	want, _, err := core.CountColorful(g, q, colors, core.Options{Plan: plan, Backend: engine.SimName})
	if err != nil {
		t.Fatal(err)
	}
	start, err := makeJobStart(ranks, engine.Job{N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Algorithm: int(core.DB)})
	if err != nil {
		t.Fatal(err)
	}
	return g, start, want
}

func mustEncode(t testing.TB, v any) []byte {
	t.Helper()
	b, err := encodePayload(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// answer writes f to the session and returns the next frame the worker
// sends, superstep completions aside, failing the test if the session has
// ended instead.
func answer(t *testing.T, coord *conn, f *frame) (*frame, jobDoneMsg) {
	t.Helper()
	if err := coord.writeFrame(f); err != nil {
		t.Fatalf("writing %s: %v", kindName(f.Kind), err)
	}
	reply, err := coord.readFrame()
	for err == nil && reply.Kind == kStepDone {
		reply, err = coord.readFrame()
	}
	if err != nil {
		t.Fatalf("after a %s frame the session ended: %v", kindName(f.Kind), err)
	}
	var done jobDoneMsg
	if reply.Kind == kJobDone {
		if err := decodePayload(reply.Payload, &done); err != nil {
			t.Fatal(err)
		}
	}
	return reply, done
}

// A start whose payload does not decode fails its own job, reported like
// any other job error, and the session goes on to count the next job.
func TestBadJobStartFailsOnlyItsJob(t *testing.T) {
	g, start, want := path3Start(t, 1, 1)
	coord, _ := coordinate(t, WorkerOptions{})
	f, done := answer(t, coord, &frame{Kind: kJobStart, Job: 1, Src: -1, Payload: []byte("not a job start")})
	if f.Kind != kJobDone || f.Job != 1 || !strings.Contains(done.Err, "bad jobStart payload") {
		t.Fatalf("a bad start for job 1 got a %s frame for job %d, error %q", kindName(f.Kind), f.Job, done.Err)
	}
	f, _ = answer(t, coord, &frame{Kind: kJobStart, Job: 2, Src: -1, Payload: mustEncode(t, start)})
	if f.Kind != kGraphReq || f.Job != 2 {
		t.Fatalf("job 2's start got a %s frame for job %d, want its graph request", kindName(f.Kind), f.Job)
	}
	f, done = answer(t, coord, &frame{Kind: kGraphData, Job: 2, Src: -1, Payload: mustEncode(t, graphDataMsg{FP: start.GraphFP, G: g})})
	if f.Kind != kJobDone || f.Job != 2 || done.Err != "" || done.Count != want {
		t.Errorf("job 2 ended with a %s frame for job %d: count %d, error %q; sim counts %d", kindName(f.Kind), f.Job, done.Count, done.Err, want)
	}
}

// A second start for a live job's id is dropped: the live job keeps the
// id, gets its graph and reports, and the session ends with no job left.
func TestDuplicateJobStartIsDropped(t *testing.T) {
	g, start, want := path3Start(t, 1, 1)
	coord, served := coordinate(t, WorkerOptions{})
	if f, _ := answer(t, coord, &frame{Kind: kJobStart, Job: 2, Src: -1, Payload: mustEncode(t, start)}); f.Kind != kGraphReq {
		t.Fatalf("job 2's start got a %s frame, want its graph request", kindName(f.Kind))
	}
	if err := coord.writeFrame(&frame{Kind: kJobStart, Job: 2, Src: -1, Payload: mustEncode(t, start)}); err != nil {
		t.Fatal(err)
	}
	f, done := answer(t, coord, &frame{Kind: kGraphData, Job: 2, Src: -1, Payload: mustEncode(t, graphDataMsg{FP: start.GraphFP, G: g})})
	if f.Kind != kJobDone || done.Err != "" || done.Count != want {
		t.Errorf("job 2 went on with a %s frame: count %d, error %q; sim counts %d", kindName(f.Kind), done.Count, done.Err, want)
	}
	coord.c.Close()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("ServeConn did not return once the pipe closed")
	}
}

// wireCSR has a graph's wire fields, so gob decodes it as one.
type wireCSR struct {
	Name string
	N    int
	Off  []int64
	Nbr  []uint32
}

// rawGraph is a graph payload as given: a *graph.Graph decodes it, but
// nothing checks it on the way out.
type rawGraph []byte

func (r rawGraph) GobEncode() ([]byte, error) { return r, nil }

// csrPastN returns g's CSR with its last neighbour renamed to N, one past
// the last vertex.
func csrPastN(t *testing.T, g *graph.Graph) rawGraph {
	w := wireCSR{Name: g.Name, N: g.N(), Off: []int64{0}}
	for v := 0; v < g.N(); v++ {
		w.Nbr = append(w.Nbr, g.Neighbors(uint32(v))...)
		w.Off = append(w.Off, int64(len(w.Nbr)))
	}
	w.Nbr[len(w.Nbr)-1] = uint32(g.N())
	return rawGraph(mustEncode(t, w))
}

// A graph frame that is not the graph its job asked for fails that job
// alone: the worker caches nothing from it, so the next job on the same
// fingerprint asks for the graph again and counts on the right one.
func TestBadGraphFrameFailsOnlyItsJob(t *testing.T) {
	g, start, want := path3Start(t, 1, 1)
	other, _, _ := path3Start(t, 1, 2)
	bad := []struct {
		name    string
		payload []byte
	}{
		{"another graph under the job's fingerprint", mustEncode(t, graphDataMsg{FP: start.GraphFP, G: other})},
		{"the job's graph under another fingerprint", mustEncode(t, graphDataMsg{FP: other.Fingerprint(), G: g})},
		{"a neighbour past the last vertex", mustEncode(t, struct {
			FP uint64
			G  rawGraph
		}{start.GraphFP, csrPastN(t, g)})},
	}
	coord, _ := coordinate(t, WorkerOptions{})
	job := uint64(1)
	for _, b := range bad {
		f, _ := answer(t, coord, &frame{Kind: kJobStart, Job: job, Src: -1, Payload: mustEncode(t, start)})
		if f.Kind != kGraphReq || f.Job != job {
			t.Fatalf("after %s, job %d's start got a %s frame for job %d, want its graph request", b.name, job, kindName(f.Kind), f.Job)
		}
		f, done := answer(t, coord, &frame{Kind: kGraphData, Job: job, Src: -1, Payload: b.payload})
		if f.Kind != kJobDone || f.Job != job || done.Err == "" {
			t.Fatalf("%s: job %d ended with a %s frame for job %d, count %d, error %q; want it failed", b.name, job, kindName(f.Kind), f.Job, done.Count, done.Err)
		}
		job++
	}
	if f, _ := answer(t, coord, &frame{Kind: kJobStart, Job: job, Src: -1, Payload: mustEncode(t, start)}); f.Kind != kGraphReq {
		t.Fatalf("job %d's start got a %s frame, want its graph request", job, kindName(f.Kind))
	}
	f, done := answer(t, coord, &frame{Kind: kGraphData, Job: job, Src: -1, Payload: mustEncode(t, graphDataMsg{FP: start.GraphFP, G: g})})
	if f.Kind != kJobDone || done.Err != "" || done.Count != want {
		t.Errorf("job %d ended with a %s frame: count %d, error %q; sim counts %d", job, kindName(f.Kind), done.Count, done.Err, want)
	}
}

// startFails sends a start the worker must refuse before it asks for the
// graph, and returns the job's error.
func startFails(t *testing.T, start jobStartMsg, rank int32) string {
	t.Helper()
	coord, _ := coordinate(t, WorkerOptions{})
	f, done := answer(t, coord, &frame{Kind: kJobStart, Job: 1, Src: -1, Dst: rank, Payload: mustEncode(t, start)})
	if f.Kind != kJobDone || done.Err == "" {
		t.Fatalf("the start got a %s frame, error %q; want a failed job", kindName(f.Kind), done.Err)
	}
	return done.Err
}

// A start that assigns the worker a rank outside the job's ranks fails
// before a rank is built over a band that does not exist.
func TestJobStartRankOutOfRange(t *testing.T) {
	_, start, _ := path3Start(t, 2, 1)
	for _, rank := range []int32{2, -1} {
		if err := startFails(t, start, rank); !strings.Contains(err, "rank") {
			t.Errorf("rank %d of 2: error %q", rank, err)
		}
	}
	start.Ranks = 0
	if err := startFails(t, start, 0); !strings.Contains(err, "rank") {
		t.Errorf("rank 0 of 0: error %q", err)
	}
}

// A start whose query has more nodes than the solver takes fails before
// the query's k×k matrix is allocated: at 65 536 nodes it is 4 GiB.
func TestJobStartQueryTooLarge(t *testing.T) {
	_, start, _ := path3Start(t, 1, 1)
	start.QueryK = 1 << 16
	if err := startFails(t, start, 0); !strings.Contains(err, "65536-node query") {
		t.Errorf("error %q", err)
	}
}

// runningJobs returns the stacks of the goroutines running a worker job.
func runningJobs() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "dist.(*workerConn).runJob(") {
			out = append(out, g)
		}
	}
	return out
}

// FuzzWorkerFrames writes one fuzzed frame into a worker session among
// live jobs: job 1, rank 0 of a two-rank path3 job, waits at its first
// superstep's barrier, and job 2, a one-rank path3 job, for its graph. A
// start the worker cannot decode then shows the session still answers,
// and the pipe closes. The worker must not panic, and once ServeConn has
// returned no job of it may still run.
func FuzzWorkerFrames(f *testing.F) {
	g2, start, _ := path3Start(f, 1, 1)
	g1, twoRanks, _ := path3Start(f, 2, 2)
	graph1 := mustEncode(f, graphDataMsg{FP: twoRanks.GraphFP, G: g1})
	graph2 := mustEncode(f, graphDataMsg{FP: start.GraphFP, G: g2})
	lane := wireLane{Dst: 0, Ents: []table.Ent{{VU: 1<<32 | 2, S: 3, C: 1}}}
	f.Add(kJobStart, uint64(3), int64(0), int32(0), mustEncode(f, start))
	f.Add(kJobStart, uint64(2), int64(0), int32(0), mustEncode(f, start)) // a live job's id
	f.Add(kGraphData, uint64(2), int64(0), int32(0), graph2)
	f.Add(kStepBatch, uint64(1), int64(1), int32(0), mustEncode(f, batchMsg{Lanes: []wireLane{lane}}))
	f.Add(kJobCancel, uint64(1), int64(0), int32(0), mustEncode(f, cancelMsg{Reason: "fuzz"}))
	f.Fuzz(func(t *testing.T, kind byte, job uint64, step int64, dst int32, payload []byte) {
		probe := ^uint64(0)
		if job == probe {
			probe--
		}
		coord, served := coordinate(t, WorkerOptions{Conc: 1})
		answered, ended := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(ended)
			for {
				sent, err := coord.readFrame()
				if err != nil {
					return
				}
				switch {
				case sent.Kind == kGraphReq && sent.Job != 2: // job 2's graph is the fuzzed frame's to give
					coord.writeFrame(&frame{Kind: kGraphData, Job: sent.Job, Src: -1, Payload: graph1}) //nolint:errcheck // the session may have ended
				case sent.Kind == kJobDone && sent.Job == probe:
					close(answered) // once: no other frame names the probe's job
				}
			}
		}()
		// A write to a session that has ended fails; the select below sees it end.
		coord.writeFrame(&frame{Kind: kJobStart, Job: 1, Src: -1, Payload: mustEncode(t, twoRanks)})    //nolint:errcheck
		coord.writeFrame(&frame{Kind: kJobStart, Job: 2, Src: -1, Payload: mustEncode(t, start)})       //nolint:errcheck
		coord.writeFrame(&frame{Kind: kind, Job: job, Step: step, Src: -1, Dst: dst, Payload: payload}) //nolint:errcheck
		coord.writeFrame(&frame{Kind: kJobStart, Job: probe, Src: -1, Payload: []byte("probe")})        //nolint:errcheck
		select {
		case <-answered:
		case <-ended:
		case <-time.After(10 * time.Second):
			t.Fatal("the session neither answered a start nor ended")
		}
		coord.c.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("ServeConn did not return once the pipe closed")
		}
		// A job's goroutine may still be leaving runJob's last deferred call.
		for deadline := time.Now().Add(time.Second); len(runningJobs()) > 0; time.Sleep(time.Millisecond) {
			if jobs := runningJobs(); time.Now().After(deadline) {
				t.Fatalf("%d jobs outlive their session:\n%s", len(jobs), strings.Join(jobs, "\n\n"))
			}
		}
	})
}
