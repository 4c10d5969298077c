package dist

import (
	"fmt"
	"io"
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

// LoopbackRank returns the worker-side backend of a one-rank loopback
// session that has no solver attached, so a caller can drive its
// supersteps directly: the engine conformance table runs the same cases
// on it as on the in-process backends. Its barrier frames cross the real
// codec to a peer that discards them. stop closes the session.
func LoopbackRank(parts, n int) (be engine.Backend, stop func()) {
	coordSide, workerSide := net.Pipe()
	go io.Copy(io.Discard, coordSide)
	w := &workerConn{conn: &conn{c: workerSide}, jobs: make(map[uint64]*wjob)}
	rk := newRank(newTopo(1, parts, n), 0, w.registerJob(1, 1), 0)
	return rk, func() { coordSide.Close(); workerSide.Close() }
}
