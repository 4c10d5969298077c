package dist

import (
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"
)

// A peer that speaks out of turn ends the session with an error that names
// the frame, on either side of the wire: a worker handed a frame only
// workers send, a coordinator handed one only coordinators send.
func TestOutOfTurnFrameEndsSession(t *testing.T) {
	hello, err := encodePayload(helloMsg{Version: protoVersion})
	if err != nil {
		t.Fatal(err)
	}

	coordSide, workerSide := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- ServeConn(workerSide, WorkerOptions{}) }()
	coord := &conn{c: coordSide}
	if err := coord.writeFrame(&frame{Kind: kHello, Src: -1, Payload: hello}); err != nil {
		t.Fatal(err)
	}
	if f, err := coord.readFrame(); err != nil || f.Kind != kHello {
		t.Fatalf("handshake: frame %+v, err %v", f, err)
	}
	if err := coord.writeFrame(&frame{Kind: kStepDone, Src: -1}); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err == nil || !strings.Contains(err.Error(), "unexpected stepDone frame") {
		t.Errorf("worker session ended with %v, want an unexpected stepDone frame", err)
	}
	coordSide.Close()

	coordSide, workerSide = net.Pipe()
	defer workerSide.Close()
	worker := &conn{c: workerSide}
	go func() { // a worker that shakes hands, then sends what only a coordinator may
		if _, err := worker.readFrame(); err != nil {
			return
		}
		worker.writeFrame(&frame{Kind: kHello, Payload: hello}) //nolint:errcheck // the coordinator's log is what is checked
		worker.writeFrame(&frame{Kind: kJobCancel})             //nolint:errcheck
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
