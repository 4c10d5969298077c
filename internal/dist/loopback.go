package dist

import (
	"fmt"
	"net"

	"repro/internal/engine"
)

// Loopback builds a cluster whose workers are goroutines in this process,
// connected over synchronous in-memory pipes. Every frame still crosses
// the full wire codec — encode, length-prefix, decode — so the loopback
// cluster exercises the identical protocol as real worker processes,
// minus the sockets. It is the dist backend's debug and test transport,
// and a way to run the wire path on one machine without spawning workers.
func Loopback(ranks int, opts WorkerOptions) (*Cluster, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("dist: loopback cluster needs at least one rank, got %d", ranks)
	}
	conns := make([]net.Conn, ranks)
	addrs := make([]string, ranks)
	for i := 0; i < ranks; i++ {
		coordSide, workerSide := net.Pipe()
		conns[i] = coordSide
		addrs[i] = fmt.Sprintf("loopback/%d", i)
		go ServeConn(workerSide, opts)
	}
	return NewWithConns(conns, addrs, Options{})
}

// LoopbackRanks returns the worker-side backends of a loopback session
// that has no solver attached, so a caller can drive their supersteps
// directly — the same Step on every rank at once, as SPMD solvers would:
// the engine conformance table runs the same cases on them as on the
// in-process backends. Every frame crosses the real codec to a relay that
// queues a batch at its destination rank and discards the rest. Each rank
// runs its tasks on conc goroutines (WorkerOptions.Conc). stop closes the
// session.
func LoopbackRanks(ranks, parts, n, conc int) (bes []engine.Backend, stop func()) {
	jobs := make([]*wjob, ranks)
	pipes := make([]net.Conn, 0, 2*ranks)
	for r := range jobs {
		coordSide, workerSide := net.Pipe()
		pipes = append(pipes, coordSide, workerSide)
		w := &workerConn{conn: &conn{c: workerSide}, jobs: make(map[uint64]*wjob)}
		jobs[r] = w.registerJob(1, ranks)
		bes = append(bes, newRank(ranks, parts, n, r, jobs[r], conc))
	}
	for r := range jobs {
		relay := &conn{c: pipes[2*r]}
		go func() {
			for {
				f, err := relay.readFrame()
				if err != nil {
					return
				}
				if f.Kind == kStepBatch {
					jobs[f.Dst].enqueue(f.Step, f.Payload)
				}
			}
		}()
	}
	return bes, func() {
		for _, p := range pipes {
			p.Close()
		}
	}
}
