package engine

import (
	"sync/atomic"
	"testing"

	"repro/internal/sig"
	"repro/internal/table"
)

func TestRunVisitsAllWorkers(t *testing.T) {
	c := NewCluster(8, 100)
	var visited [8]atomic.Bool
	c.Run(func(w int) { visited[w].Store(true) })
	for w := range visited {
		if !visited[w].Load() {
			t.Fatalf("worker %d not run", w)
		}
	}
}

func TestLoadAccounting(t *testing.T) {
	c := NewCluster(3, 30)
	c.Run(func(w int) { c.AddLoad(w, int64(w)*10) })
	max, avg, total := LoadStats(c.Loads())
	if max != 20 || total != 30 || avg != 10 {
		t.Fatalf("stats = %d %f %d", max, avg, total)
	}
	if max, avg, total := LoadStats(nil); max != 0 || avg != 0 || total != 0 {
		t.Fatalf("stats of no workers = %d %f %d", max, avg, total)
	}
}

func TestShardedAccumulate(t *testing.T) {
	c := NewCluster(4, 40)
	s := NewSharded(c)
	// Route (v, v) unary entries to their owner via a superstep.
	c.Step(s, func(w int, emit Emit) {
		if w != 0 {
			return
		}
		for v := 0; v < 40; v++ {
			emit(c.Owner(uint32(v)), []Msg{{K: table.Unary(uint32(v), sig.Of(0)), C: 2}})
		}
	})
	if s.Len() != 40 || s.Total() != 80 {
		t.Fatalf("Len=%d Total=%d", s.Len(), s.Total())
	}
	// Every entry must live in its owner's shard.
	for w := 0; w < 4; w++ {
		s.Shard(w).Iter(func(k table.Key, _ uint64) bool {
			if c.Owner(k.U) != w {
				t.Errorf("entry %d in shard %d, owner %d", k.U, w, c.Owner(k.U))
			}
			return true
		})
	}
	n := 0
	s.Iter(func(table.Key, uint64) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
}
