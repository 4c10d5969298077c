package service_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/service"
)

func plSpec(seed int64) service.GraphSpec {
	return service.GraphSpec{PowerLawN: 500, Alpha: 1.6, Seed: seed}
}

// graphBytes measures the resident size the registry charges for one
// plSpec graph, so eviction tests can pick budgets without hard-coding
// size estimates.
func graphBytes(t *testing.T, seed int64) int64 {
	t.Helper()
	r := service.NewRegistry(0)
	h, err := r.Add(plSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	return r.Stats().Bytes
}

// maxGraphBytes is the largest graphBytes over seeds 1..n, the unit for
// budgets that must fit a given number of those graphs whichever they are.
func maxGraphBytes(t *testing.T, n int64) int64 {
	t.Helper()
	var one int64
	for seed := int64(1); seed <= n; seed++ {
		one = max(one, graphBytes(t, seed))
	}
	return one
}

func TestRegistryDedupesBySource(t *testing.T) {
	r := service.NewRegistry(0)
	h1, err := r.Add(plSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Release()
	h2, err := r.Add(plSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if h1.ID() != h2.ID() {
		t.Errorf("same spec produced two entries: %s vs %s", h1.ID(), h2.ID())
	}
	if h1.Graph() != h2.Graph() {
		t.Error("same spec produced two graph instances")
	}
	st := r.Stats()
	if st.Loads != 1 {
		t.Errorf("loads = %d, want 1", st.Loads)
	}
	if st.Graphs != 1 {
		t.Errorf("graphs = %d, want 1", st.Graphs)
	}
}

func TestRegistryAcquireByIDAndName(t *testing.T) {
	r := service.NewRegistry(0)
	spec := plSpec(1)
	spec.Name = "mygraph"
	h, err := r.Add(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	byID, ok := r.Acquire(h.ID())
	if !ok {
		t.Fatalf("acquire by id %s failed", h.ID())
	}
	byID.Release()
	byName, ok := r.Acquire("mygraph")
	if !ok {
		t.Fatal("acquire by name failed")
	}
	byName.Release()
	if _, ok := r.Acquire("nonesuch"); ok {
		t.Error("acquire of unknown ref succeeded")
	}
}

func TestRegistryNameCollision(t *testing.T) {
	r := service.NewRegistry(0)
	a := plSpec(1)
	a.Name = "taken"
	h, err := r.Add(a)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	b := plSpec(2) // different source, same name
	b.Name = "taken"
	if _, err := r.Add(b); err == nil {
		t.Error("conflicting name registration succeeded")
	}
}

func TestRegistryRejectsAmbiguousSpec(t *testing.T) {
	r := service.NewRegistry(0)
	if _, err := r.Add(service.GraphSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := r.Add(service.GraphSpec{Standin: "enron", PowerLawN: 100}); err == nil {
		t.Error("double-source spec accepted")
	}
	if _, err := r.Add(service.GraphSpec{Standin: "enrno"}); err == nil || !strings.Contains(err.Error(), "enron") {
		t.Errorf("unknown stand-in: %v, want an error that lists the known names", err)
	}
}

func TestRegistryLRUEvictionRespectsRefsAndRecency(t *testing.T) {
	one := graphBytes(t, 1)
	// Budget fits two graphs but not three.
	r := service.NewRegistry(2*one + one/2)

	h1, err := r.Add(plSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := r.Add(plSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	id1, id2 := h1.ID(), h2.ID()

	// All entries referenced: adding a third must evict nothing.
	h3, err := r.Add(plSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Evictions != 0 || st.Graphs != 3 {
		t.Fatalf("eviction while all graphs referenced: %+v", st)
	}

	// Release 2 then 1: 2 is now least recently used and the only idle
	// entries are over budget, so releasing must evict 2 first.
	h2.Release()
	if st := r.Stats(); st.Evictions != 1 {
		t.Fatalf("releasing over budget should evict the idle entry: %+v", st)
	}
	if _, ok := r.Acquire(id2); ok {
		t.Error("evicted graph still resolvable")
	}
	h1.Release()
	h3.Release()
	// Now within budget (two graphs resident): no further eviction.
	st := r.Stats()
	if st.Graphs != 2 || st.Evictions != 1 {
		t.Fatalf("want 2 resident graphs, 1 eviction: %+v", st)
	}
	if _, ok := r.Acquire(id1); !ok {
		t.Error("recently used graph was evicted")
	}
}

// TestRegistryListKeepsRegistrationOrder registers six graphs one after
// another and checks ids count up, an explicit name resolves, and List
// returns registration order — also after an eviction takes an entry out
// of the middle.
func TestRegistryListKeepsRegistrationOrder(t *testing.T) {
	var total int64
	for seed := int64(1); seed <= 6; seed++ {
		total += graphBytes(t, seed)
	}
	r := service.NewRegistry(total) // all six fit; a seventh does not
	handles := make([]*service.Handle, 6)
	for i := range handles {
		sp := plSpec(int64(i + 1))
		if i == 2 {
			sp.Name = "named"
		}
		h, err := r.Add(sp)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("g%d", i+1); h.ID() != want {
			t.Fatalf("registration %d got id %s, want %s", i+1, h.ID(), want)
		}
		handles[i] = h
	}
	ids := func() string {
		var out []string
		for _, info := range r.List() {
			out = append(out, info.ID+"="+info.Name)
		}
		return strings.Join(out, " ")
	}
	if got, want := ids(), "g1=powerlaw500 g2=g2 g3=named g4=g4 g5=g5 g6=g6"; got != want {
		t.Errorf("listing = %q, want %q", got, want)
	}
	if h, ok := r.Acquire("named"); !ok || h.Fingerprint() != handles[2].Fingerprint() {
		t.Error("explicit name does not resolve to its graph")
	} else {
		h.Release()
	}
	// Only g3 is idle when the seventh graph goes over budget.
	handles[2].Release()
	h7, err := r.Add(plSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	handles[2] = h7
	if got, want := ids(), "g1=powerlaw500 g2=g2 g4=g4 g5=g5 g6=g6 g7=g7"; got != want {
		t.Errorf("listing after evicting g3 = %q, want %q", got, want)
	}
	for _, h := range handles {
		h.Release()
	}
}

// TestRegistryEvictsIdleAroundPins: held graphs are never evicted, and an
// idle one is — in the very Add that goes over budget, whichever graphs
// hold the pins.
func TestRegistryEvictsIdleAroundPins(t *testing.T) {
	one := maxGraphBytes(t, 4)
	budget := 3*one + one/2
	r := service.NewRegistry(budget)

	pins := make([]*service.Handle, 2)
	for i := range pins {
		h, err := r.Add(plSpec(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		pins[i] = h
	}
	idle, err := r.Add(plSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	idleID := idle.ID()
	idle.Release()
	// The idle graph is the most recently used of the three; it is still
	// the one to go, because the older two are held.
	h4, err := r.Add(plSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	defer h4.Release()
	if st := r.Stats(); st.Evictions != 1 || st.Graphs != 3 || st.Bytes > budget {
		t.Fatalf("want the idle graph evicted by the Add that went over budget: %+v", st)
	}
	if _, ok := r.Acquire(idleID); ok {
		t.Error("idle graph survived while the registry was over budget")
	}
	for _, h := range pins {
		got, ok := r.Acquire(h.ID())
		if !ok || got.Fingerprint() != h.Fingerprint() {
			t.Fatalf("pinned graph %s evicted", h.ID())
		}
		got.Release()
		h.Release()
	}
}

// TestRegistryPinnedSurvivesConcurrentFlood pins one graph, floods the
// registry far past its budget from concurrent goroutines, and checks the
// pinned graph survives with its identity intact and every handle the
// flood held stayed valid. Run under -race.
func TestRegistryPinnedSurvivesConcurrentFlood(t *testing.T) {
	one := graphBytes(t, 1)
	r := service.NewRegistry(3*one + one/2) // fits ~3 graphs; the flood is 24

	pinned, err := r.Add(plSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	wantFP, wantID := pinned.Fingerprint(), pinned.ID()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				h, err := r.Add(plSpec(int64(2 + 6*w + i)))
				if err != nil {
					t.Error(err)
					return
				}
				fp := service.Fingerprint(h.Graph())
				if again, ok := r.Acquire(h.ID()); !ok {
					t.Errorf("held graph %s not resolvable", h.ID())
				} else {
					if again.Fingerprint() != fp {
						t.Errorf("id %s resolves to another graph while held", h.ID())
					}
					again.Release()
				}
				h.Release()
			}
		}(w)
	}
	wg.Wait()

	st := r.Stats()
	if st.Evictions == 0 {
		t.Fatalf("flood caused no evictions; budget too high for the test: %+v", st)
	}
	if st.Bytes > st.BudgetBytes {
		t.Errorf("registry over budget with idle graphs resident: %+v", st)
	}
	got, ok := r.Acquire(wantID)
	if !ok {
		t.Fatal("pinned graph no longer resolvable by id")
	}
	if got.Fingerprint() != wantFP || got.Graph() != pinned.Graph() {
		t.Error("pinned id resolves to a different graph")
	}
	got.Release()
	pinned.Release()
}

// TestRegistryEvictionClearsAliases re-registers one source under an
// extra name and checks that eviction removes every alias: resolving a
// stale alias to an evicted entry would hand out a handle whose graph is
// nil.
func TestRegistryEvictionClearsAliases(t *testing.T) {
	one := graphBytes(t, 1)
	r := service.NewRegistry(one + one/2) // fits one graph only

	h, err := r.Add(plSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	aliased := plSpec(1)
	aliased.Name = "alias"
	ha, err := r.Add(aliased)
	if err != nil {
		t.Fatal(err)
	}
	ha.Release()
	h.Release()

	// Force the first graph out by adding a second.
	h2, err := r.Add(plSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if st := r.Stats(); st.Evictions != 1 {
		t.Fatalf("want 1 eviction, got %+v", st)
	}
	if _, ok := r.Acquire("alias"); ok {
		t.Fatal("alias of evicted graph still resolvable")
	}
	if _, ok := r.Info("alias"); ok {
		t.Fatal("Info on alias of evicted graph still succeeds")
	}
}

// TestRegistryAutoIDSkipsSquattedNames registers a graph under the name
// an auto id would later take ("g2") and checks the auto id does not
// hijack the byRef entry.
func TestRegistryAutoIDSkipsSquattedNames(t *testing.T) {
	r := service.NewRegistry(0)
	squat := plSpec(1)
	squat.Name = "g2"
	h1, err := r.Add(squat) // gets id g1, name g2
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Release()
	h2, err := r.Add(plSpec(2)) // would be id g2; must skip to g3
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if h2.ID() == "g2" {
		t.Fatal("auto id reused a user-squatted name")
	}
	got, ok := r.Acquire("g2")
	if !ok {
		t.Fatal("squatted name no longer resolves")
	}
	defer got.Release()
	if got.Fingerprint() != h1.Fingerprint() {
		t.Error("name g2 resolves to the wrong graph")
	}
}

func TestRegistryConcurrentAdd(t *testing.T) {
	r := service.NewRegistry(0)
	const workers = 8
	ids := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h, err := r.Add(plSpec(7))
			if err != nil {
				t.Error(err)
				return
			}
			ids[w] = h.ID()
			h.Release()
		}(w)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("concurrent adds of one spec produced entries %v", ids)
		}
	}
	if st := r.Stats(); st.Graphs != 1 {
		t.Errorf("graphs = %d, want 1", st.Graphs)
	}
}

func TestFingerprintDistinguishesTopology(t *testing.T) {
	r := service.NewRegistry(0)
	h1, err := r.Add(plSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Release()
	h2, err := r.Add(plSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if h1.Fingerprint() == h2.Fingerprint() {
		t.Error("different graphs share a fingerprint")
	}
	if h1.Fingerprint() != service.Fingerprint(h1.Graph()) {
		t.Error("handle fingerprint differs from recomputation")
	}
}
