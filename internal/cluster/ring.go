// Package cluster is the serving tier's multi-replica layer: a
// deterministic consistent-hash ring assigning every trial stream
// (TrialKey, hashed by the service layer) one home replica, plus the
// per-peer health and circuit-breaker state the forwarding path needs to
// fail fast when a home is down.
//
// The ring is built over the full configured membership and nothing
// else: every replica constructs it from the same member list, so
// key→home agreement needs no coordination protocol. Peer health and
// breaker state never move keys — they only decide whether a non-owner
// forwards to the home or serves the key locally (degraded but
// available). A dead replica therefore costs its own keys one local
// recompute per entry replica, not a ring-wide reshuffle; when it comes
// back, its keys are still its own.
package cluster

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-member virtual node count. 128 points
// per member keeps the expected ownership imbalance across a handful of
// replicas within a few percent while the ring stays small enough to
// rebuild on every membership change.
const DefaultVirtualNodes = 128

// ringPoint is one virtual node: a position on the 64-bit ring owned by
// one member.
type ringPoint struct {
	hash   uint64
	member int // index into Ring.members
}

// Ring is an immutable consistent-hash ring over a fixed member list.
// Owner lookup is a binary search over the sorted virtual-node points;
// the ring is rebuilt, never mutated, on membership change — so a Ring
// value can be read without locks.
type Ring struct {
	members []string
	points  []ringPoint
}

// NewRing builds a ring over members (deduplicated, order-insensitive)
// with vnodes virtual nodes per member (≤ 0 means DefaultVirtualNodes).
// Two rings over the same member set are identical regardless of input
// order, process, or machine: positions are pure FNV-1a over
// "member#vnode" strings.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(members))
	var uniq []string
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member address")
		}
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	// Sorting the member list first makes the members-index → address
	// mapping itself canonical, so serialized stats and tests see one
	// order no matter how the flag was written.
	sort.Strings(uniq)
	r := &Ring{
		members: uniq,
		points:  make([]ringPoint, 0, len(uniq)*vnodes),
	}
	for i, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(m, v), member: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		p, q := r.points[a], r.points[b]
		if p.hash != q.hash {
			return p.hash < q.hash
		}
		// Colliding points tie-break by member index so the ring is
		// still a pure function of the member set.
		return p.member < q.member
	})
	return r, nil
}

// pointHash positions one virtual node: FNV-1a over "member#vnode".
func pointHash(member string, vnode int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, member) //nolint:errcheck // fnv never fails
	h.Write([]byte{'#'})
	io.WriteString(h, strconv.Itoa(vnode)) //nolint:errcheck // fnv never fails
	return h.Sum64()
}

// Owner maps a key hash (the service layer's TrialKey FNV-1a hash) to
// its home member: the first virtual node at or clockwise of the hash,
// wrapping at the top of the ring.
func (r *Ring) Owner(keyHash uint64) string {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= keyHash })
	if i == len(r.points) {
		i = 0
	}
	return r.members[r.points[i].member]
}

// Members returns the ring's member addresses, sorted. The slice is
// shared; callers must not mutate it.
func (r *Ring) Members() []string { return r.members }
