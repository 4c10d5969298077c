package dist

import (
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/query"
)

// A peer that speaks out of turn ends the session with an error that names
// the frame, on either side of the wire: a worker handed a frame only
// workers send, a coordinator handed one only coordinators send.
func TestOutOfTurnFrameEndsSession(t *testing.T) {
	coord, served := coordinate(t, WorkerOptions{})
	if err := coord.writeFrame(&frame{Kind: kStepDone, Src: -1}); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err == nil || !strings.Contains(err.Error(), "unexpected stepDone frame") {
		t.Errorf("worker session ended with %v, want an unexpected stepDone frame", err)
	}
	coord.c.Close()

	coordSide, workerSide := net.Pipe()
	defer workerSide.Close()
	worker := &conn{c: workerSide}
	go func() { // a worker that shakes hands, then sends what only a coordinator may
		if worker.shake(false) == nil {
			worker.writeFrame(&frame{Kind: kJobCancel}) //nolint:errcheck // the coordinator's log is what is checked
		}
	}()
	logged := make(logLines, 16)
	c, err := NewWithConns([]net.Conn{coordSide}, []string{"rogue"}, Options{Logger: slog.New(slog.NewTextHandler(logged, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.After(10 * time.Second)
	for { // whatever else the coordinator logs on the way is not this test's business
		select {
		case line := <-logged:
			if !strings.Contains(line, "unexpected jobCancel frame") {
				continue
			}
			if c.NodeStats()[0].Alive {
				t.Errorf("coordinator logged %q and still reports the node alive", line)
			}
		case <-deadline:
			t.Error("the coordinator never took the node down for an unexpected jobCancel frame")
		}
		return
	}
}

// logLines is a log sink a test can wait on; lines nobody has room for
// are dropped.
type logLines chan string

func (l logLines) Write(p []byte) (int, error) {
	select {
	case l <- string(p):
	default:
	}
	return len(p), nil
}

// A plan crosses the wire as indices, and a rank marks its blocks again
// (decomp.Tree.MarkMirrored), so it folds the mirror images of a root
// cycle's pass as the coordinator's plan does: on every tree of every
// catalog query, the decoded plan's blocks carry the marks Enumerate set.
func TestDecodedPlanKeepsMirroredMarks(t *testing.T) {
	marked := 0
	for _, q := range query.Catalog() {
		trees, err := decomp.Enumerate(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trees {
			w, err := encodePlan(tr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodePlan(w, q)
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range tr.Blocks {
				if got.Blocks[i].Mirrored != b.Mirrored {
					t.Errorf("%s, tree %s: block %v decoded with mark %v, sent with %v", q.Name, tr.Encode(), b, got.Blocks[i].Mirrored, b.Mirrored)
				}
				if b.Mirrored {
					marked++
				}
			}
		}
	}
	if marked == 0 {
		t.Fatal("no catalog tree has a marked block; the test compares nothing")
	}
}
