package core

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/table"
)

// Counts are uint64, and the joins multiply and the pulls sum them with no
// check in their loops. So each table carries a bound on its largest count
// (engine.Sharded.Max), and before each superstep the solver multiplies the
// bounds of what the step reads by the most terms one cell it writes can
// sum. If that product reaches 2⁶⁴ the step does not run: the solve stops
// as a canceled one does and returns ErrCountOverflow. A table's bound is
// measured where a pass reads each of its cells anyway: compaction (track),
// and the load passes of a leaf's projection and of a start-free node step
// (table.Census). Anywhere else it is the bound its step was checked
// against.

// ErrCountOverflow is what a solve returns, wrapped with the step and its
// bound, when a step's bound on the counts it would write reaches 2⁶⁴: the
// count is refused rather than wrapped.
var ErrCountOverflow = errors.New("core: count overflow")

// fits checks a step before it runs: the product of factors, the bound on
// the largest count the step can write, must stay below 2⁶⁴. It returns
// the product. Where it does not fit it refuses the run and reports false.
func (s *solver) fits(step string, factors ...uint64) (uint64, bool) {
	p := uint64(1)
	for _, f := range factors {
		hi, lo := bits.Mul64(p, f)
		if hi != 0 {
			fs := make([]string, len(factors))
			for i, f := range factors {
				fs[i] = fmt.Sprint(f)
			}
			s.refuse(step, strings.Join(fs, "·"))
			return 0, false
		}
		p = lo
	}
	return p, true
}

// add adds b to a running bound a, refusing the run where the sum reaches
// 2⁶⁴.
func (s *solver) add(step string, a, b uint64) (uint64, bool) {
	t, carry := bits.Add64(a, b, 0)
	if carry != 0 {
		s.refuse(step, fmt.Sprintf("%d+%d", a, b))
		return 0, false
	}
	return t, true
}

// refuse latches the run's overflow error, naming the step and its bound,
// and stops the run as a cancellation does.
func (s *solver) refuse(step, bound string) {
	if s.overflow == nil {
		s.overflow = fmt.Errorf("%w: %s's bound %s reaches 2^64", ErrCountOverflow, step, bound)
	}
	s.stop.Store(true)
}

// total sums t's counts, a box's cells as they lie, and refuses the run
// where the sum reaches 2⁶⁴: the root's answer, read in one pass.
func (s *solver) total(t *engine.Sharded) uint64 {
	var sum uint64
	for w := 0; w < s.be.P(); w++ {
		n, ok := t.Shard(w).Sum()
		if !ok {
			s.refuse("the root sum", fmt.Sprintf("partition %d's counts", w))
			return 0
		}
		if sum, ok = s.add("the root sum", sum, n); !ok {
			return 0
		}
	}
	return sum
}

// raise lifts m to at least v: a task's contribution to a bound several
// tasks measure.
func raise(m *atomic.Uint64, v uint64) {
	for old := m.Load(); v > old && !m.CompareAndSwap(old, v); old = m.Load() {
	}
}

// choose is the binomial coefficient C(n, r), 0 outside 0 ≤ r ≤ n: the
// number of ways one cell of a join's output splits into a cell of each
// side (sig.Pairs).
func choose(n, r int) uint64 {
	if r < 0 || r > n {
		return 0
	}
	c := uint64(1)
	for i := 1; i <= r; i++ {
		c = c * uint64(n-r+i) / uint64(i)
	}
	return c
}

// sigSize is the size of the signatures t holds, 0 if it holds none here.
func sigSize(t *engine.Sharded, parts int) int {
	for w := 0; w < parts; w++ {
		if h := t.Shard(w).SigSize(); h > 0 {
			return h
		}
	}
	return 0
}

// lying counts t's entries as they lie, duplicates unfolded, without
// compacting anything: the entries a root join streams.
func lying(t *engine.Sharded, parts int) uint64 {
	var n uint64
	for w := 0; w < parts; w++ {
		t.Shard(w).Chunks(func(ents []table.Ent) { n += uint64(len(ents)) })
	}
	return n
}
