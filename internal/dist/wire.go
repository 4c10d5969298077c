// Package dist is the distributed execution backend: real multi-process
// supersteps over a length-prefixed wire protocol. The source paper's
// algorithm is distributed-memory (Blue Gene/Q, §7–§9); the sim backend
// simulates that runtime in shared memory, and this package runs it for
// real.
//
// # Architecture
//
// The solver's phases are closures over in-process state, so they cannot
// ship over a wire. Instead the design is SPMD: every worker process runs
// the *same* deterministic solver (internal/core) over the full plan, but
// its backend owns only a contiguous block of the vertex partitions. A
// superstep's tasks append packed entries to per-task lanes; lanes of
// locally owned partitions are absorbed into their shards, and the chunks
// of lanes addressed to remote partitions are exchanged at the superstep
// barrier as one batch per (source, destination) pair. Because the
// solver's superstep sequence is a pure function of the plan — never of
// the data distribution — all ranks execute the identical Step sequence,
// and because every table operation is a commutative uint64 accumulation,
// counts are bit-identical to the sim and parallel backends for every
// query shape, worker count, and partition count.
//
// The coordinator (the process calling engine.New) is itself a rank that
// owns zero partitions: it implements engine.Backend as a barrier master
// and message router. Workers connect to it in a star; batches between
// workers are relayed through it. Its Step blocks until the superstep
// completes on every rank, so the trace spans and phase_seconds series it
// records are genuine end-to-end phase timings. The scalar (or
// per-vertex) answer is assembled by Reduce/ReduceVec, which gather every
// rank's JobDone report.
//
// Graphs ship to workers once per structural fingerprint and are cached
// worker-side (LRU), so per-trial jobs exchange only the coloring and
// table entries.
package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
)

// protoVersion guards against mixed binaries on the two conn ends. 2: a
// step batch carries lanes of packed table entries, not keyed counts — gob
// would decode either as an empty batch of the other.
const protoVersion = 2

// Frame kinds.
const (
	kHello     byte = iota + 1 // both directions: handshake, payload helloMsg
	kJobStart                  // coord → worker: payload jobStartMsg, dst = assigned rank
	kGraphReq                  // worker → coord: pull the job's graph
	kGraphData                 // coord → worker: payload graphDataMsg
	kStepBatch                 // worker → coord → worker: payload batchMsg, src/dst ranks, step set
	kStepDone                  // worker → coord: produce phase of step finished, batches sent
	kJobDone                   // worker → coord: payload jobDoneMsg, src rank
	kJobCancel                 // coord → worker: payload cancelMsg
)

func kindName(k byte) string {
	switch k {
	case kHello:
		return "hello"
	case kJobStart:
		return "jobStart"
	case kGraphReq:
		return "graphReq"
	case kGraphData:
		return "graphData"
	case kStepBatch:
		return "stepBatch"
	case kStepDone:
		return "stepDone"
	case kJobDone:
		return "jobDone"
	case kJobCancel:
		return "jobCancel"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// frame is one wire unit: a fixed header the router can act on without
// touching the payload (StepBatch relays copy Payload verbatim), plus a
// gob payload whose shape depends on Kind.
type frame struct {
	Kind    byte
	Job     uint64
	Step    int64
	Src     int32 // source rank (worker frames); -1 from the coordinator
	Dst     int32 // destination rank (jobStart assignment, stepBatch target)
	Payload []byte
}

// Header layout: 4-byte length of the rest, then kind(1) job(8) step(8)
// src(4) dst(4), then the payload.
const headerLen = 1 + 8 + 8 + 4 + 4

// maxFrame bounds one frame (1 GiB): a corrupt length prefix must not
// drive a huge allocation.
const maxFrame = 1 << 30

// conn wraps a net.Conn with frame I/O and transport counters. Writers
// must serialize through mu (held by callers via writeFrame); the single
// reader goroutine owns Read.
type conn struct {
	c          net.Conn
	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
	framesSent atomic.Int64
	framesRecv atomic.Int64
}

func (c *conn) writeFrame(f *frame) error {
	total := headerLen + len(f.Payload)
	if total > maxFrame {
		return fmt.Errorf("dist: frame %s exceeds %d bytes", kindName(f.Kind), maxFrame)
	}
	buf := make([]byte, 4+headerLen, 4+total)
	binary.BigEndian.PutUint32(buf[0:4], uint32(total))
	buf[4] = f.Kind
	binary.BigEndian.PutUint64(buf[5:13], f.Job)
	binary.BigEndian.PutUint64(buf[13:21], uint64(f.Step))
	binary.BigEndian.PutUint32(buf[21:25], uint32(f.Src))
	binary.BigEndian.PutUint32(buf[25:29], uint32(f.Dst))
	buf = append(buf, f.Payload...)
	if _, err := c.c.Write(buf); err != nil {
		return err
	}
	c.bytesSent.Add(int64(len(buf)))
	c.framesSent.Add(1)
	return nil
}

func (c *conn) readFrame() (*frame, error) {
	var lb [4]byte
	if _, err := io.ReadFull(c.c, lb[:]); err != nil {
		return nil, err
	}
	total := int(binary.BigEndian.Uint32(lb[:]))
	if total < headerLen || total > maxFrame {
		return nil, fmt.Errorf("dist: bad frame length %d", total)
	}
	body := make([]byte, total)
	if _, err := io.ReadFull(c.c, body); err != nil {
		return nil, err
	}
	c.bytesRecv.Add(int64(4 + total))
	c.framesRecv.Add(1)
	return &frame{
		Kind:    body[0],
		Job:     binary.BigEndian.Uint64(body[1:9]),
		Step:    int64(binary.BigEndian.Uint64(body[9:17])),
		Src:     int32(binary.BigEndian.Uint32(body[17:21])),
		Dst:     int32(binary.BigEndian.Uint32(body[21:25])),
		Payload: body[headerLen:],
	}, nil
}
