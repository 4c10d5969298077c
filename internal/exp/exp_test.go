package exp

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// tiny returns a config small enough for unit tests: three graphs spanning
// the skew spectrum, three queries spanning the size spectrum.
func tiny() Config {
	return Config{
		Scale:      2048,
		Workers:    4,
		WorkersLow: 2,
		Seed:       3,
		Trials:     4,
		Graphs:     []string{"enron", "epinions", "roadNetCA"},
		Queries:    []string{"glet1", "glet2", "youtube"},
	}
}

func TestTable1(t *testing.T) {
	var sb strings.Builder
	rows := Table1(&sb, tiny())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Nodes == 0 || r.Edges == 0 {
			t.Fatalf("empty stand-in %q", r.Name)
		}
	}
	if !strings.Contains(sb.String(), "enron") {
		t.Fatal("output missing graph name")
	}
}

func TestFigure9(t *testing.T) {
	res, err := Figure9(io.Discard, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 9 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	if len(res.LoadGraph) != 3 || len(res.LoadQuery) != 3 {
		t.Fatalf("averages missing: %v %v", res.LoadGraph, res.LoadQuery)
	}
	for g, l := range res.LoadGraph {
		if l <= 0 {
			t.Fatalf("graph %s has zero load", g)
		}
	}
}

func TestFigure10ShapesHold(t *testing.T) {
	res, err := Figure10(io.Discard, tiny())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if len(r.Cells) != 9 {
			t.Fatalf("matrix %d has %d cells", i, len(r.Cells))
		}
		if r.MaxIF <= 0 || r.AvgIF <= 0 {
			t.Fatalf("degenerate summary: %+v", r)
		}
	}
	// The headline claim: DB wins on a majority of skewed combos; across
	// this mixed set it must win at least somewhere, with IF > 1.2.
	if res[1].MaxIF < 1.2 {
		t.Errorf("expected some improvement from DB, max IF = %.2f", res[1].MaxIF)
	}
}

func TestFigure11(t *testing.T) {
	rows, err := Figure11(io.Discard, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MaxLoadPS <= 0 || r.MaxLoadDB <= 0 {
			t.Fatalf("zero loads: %+v", r)
		}
		if r.AvgLoadPS > float64(r.MaxLoadPS) || r.AvgLoadDB > float64(r.MaxLoadDB) {
			t.Fatalf("avg load exceeds max load: %+v", r)
		}
	}
}

func TestFigure12(t *testing.T) {
	res, err := Figure12(io.Discard, tiny())
	if err != nil {
		t.Fatal(err)
	}
	for q, sp := range res.PerQuery {
		if sp <= 0 {
			t.Fatalf("query %s: speedup %f", q, sp)
		}
		// Modeled speedup can't exceed the rank ratio by more than rounding.
		if sp > 2.5 {
			t.Fatalf("query %s: speedup %f exceeds ideal 2x", q, sp)
		}
	}
}

func TestFigure13(t *testing.T) {
	cfg := tiny()
	cfg.Queries = []string{"glet1"}
	pts, err := Figure13Strong(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 { // ranks 2, 4
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Speedup != 1 {
		t.Fatalf("baseline speedup = %f", pts[0].Speedup)
	}
	if pts[1].Speedup < 1 {
		t.Fatalf("scaling went backwards: %+v", pts[1])
	}
	weak, err := Figure13Weak(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(weak) != 2 {
		t.Fatalf("weak points = %d", len(weak))
	}
	for _, p := range weak {
		if p.MaxLoad <= 0 {
			t.Fatalf("weak point without load: %+v", p)
		}
	}
}

func TestFigure14HeuristicNearOptimal(t *testing.T) {
	cfg := tiny()
	cfg.Graphs = []string{"enron"}
	cfg.Queries = []string{"brain1", "ecoli1"}
	res, err := Figure14(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Plans < 2 {
			t.Fatalf("%s: expected multiple plans, got %d", c.Query, c.Plans)
		}
		if c.OptLoad <= 0 || c.HeurLoad < c.OptLoad {
			t.Fatalf("load bookkeeping wrong: %+v", c)
		}
	}
}

func TestFigure15(t *testing.T) {
	res, err := Figure15(io.Discard, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 9 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	if res.FracGoodFull < 0 || res.FracGoodFull > 1 || res.FracGood3 < 0 || res.FracGood3 > 1 {
		t.Fatalf("fractions out of range: %+v", res)
	}
	for _, c := range res.Cells {
		if c.CVFull < 0 || c.CV3 < 0 {
			t.Fatalf("negative CV: %+v", c)
		}
	}
}

func TestCVOfPrefix(t *testing.T) {
	counts := []uint64{10, 10, 10, 50}
	if got := cvOfPrefix(counts, 3); got != 0 {
		t.Fatalf("constant prefix CV = %f", got)
	}
	if got := cvOfPrefix(counts, 4); got <= 0 {
		t.Fatalf("varying CV = %f", got)
	}
	if got := cvOfPrefix(counts[:1], 3); got != 0 {
		t.Fatalf("single-sample CV = %f", got)
	}
}

func TestComboSeedStable(t *testing.T) {
	cfg := tiny()
	if cfg.comboSeed("a", "b") != cfg.comboSeed("a", "b") {
		t.Fatal("seed not deterministic")
	}
	if cfg.comboSeed("a", "b") == cfg.comboSeed("b", "a") {
		t.Fatal("seed collision across combos")
	}
}

func TestAblation(t *testing.T) {
	cfg := tiny()
	rows, err := Ablation(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.LoadPS <= 0 || r.LoadPSEven <= 0 || r.LoadDB <= 0 {
			t.Fatalf("zero loads: %+v", r)
		}
		if r.MaxPS < r.LoadPS/int64(cfg.Workers) {
			t.Fatalf("max below average: %+v", r)
		}
	}
}

// The theory sweep is the slowest experiment; exercise a short variant.
func TestTheoryShortSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("theory sweep")
	}
	cfg := tiny()
	res, err := Theory(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slopes) != 6 { // 3 alphas × 2 qs
		t.Fatalf("slopes = %d", len(res.Slopes))
	}
	for _, s := range res.Slopes {
		if s.RatioAtLargestN <= 1 {
			t.Errorf("alpha %.1f q %d: Y/X ratio %.2f not > 1", s.Alpha, s.Q, s.RatioAtLargestN)
		}
		if s.SlopeY < 0.5 || s.SlopeY > 2.5 {
			t.Errorf("alpha %.1f q %d: slopeY %.2f implausible", s.Alpha, s.Q, s.SlopeY)
		}
	}
	for _, n := range []int{4000, 32000} {
		if res.Lambda[n] <= 0 {
			t.Errorf("lambda(%d) missing", n)
		}
	}
	if res.Lambda[32000] >= res.Lambda[4000] {
		t.Errorf("balancedness not improving with n: %v", res.Lambda)
	}
}

func TestTreeVsCycle(t *testing.T) {
	cfg := tiny()
	rows, err := TreeVsCycle(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	loads := map[string]int64{}
	for _, r := range rows {
		if r.AvgLoad <= 0 {
			t.Fatalf("zero load: %+v", r)
		}
		loads[r.Query] = r.AvgLoad
	}
	// The §8.2 shape: the 12-node tree is far cheaper than the 10-node
	// brain3 despite being larger.
	if loads["bintree12"]*2 > loads["brain3"] {
		t.Errorf("tree query not clearly cheaper: tree %d vs brain3 %d",
			loads["bintree12"], loads["brain3"])
	}
}

// Every sgbench target reports the load model and nothing a stopwatch
// read, so what it prints depends on (scale, seed, backend, workers)
// alone: two runs of the whole suite are byte-equal.
func TestSuiteOutputIsDeterministic(t *testing.T) {
	targets := []struct {
		name string
		run  func(io.Writer, Config) error
	}{
		{"table1", func(w io.Writer, c Config) error { Table1(w, c); return nil }},
		{"fig9", func(w io.Writer, c Config) error { _, err := Figure9(w, c); return err }},
		{"fig10", func(w io.Writer, c Config) error { _, err := Figure10(w, c); return err }},
		{"fig11", func(w io.Writer, c Config) error { _, err := Figure11(w, c); return err }},
		{"fig12", func(w io.Writer, c Config) error { _, err := Figure12(w, c); return err }},
		{"fig13 strong", func(w io.Writer, c Config) error { _, err := Figure13Strong(w, c); return err }},
		{"fig13 weak", func(w io.Writer, c Config) error { _, err := Figure13Weak(w, c); return err }},
		{"fig14", func(w io.Writer, c Config) error { _, err := Figure14(w, c); return err }},
		{"fig15", func(w io.Writer, c Config) error { _, err := Figure15(w, c); return err }},
		{"ablation", func(w io.Writer, c Config) error { _, err := Ablation(w, c); return err }},
		{"treecycle", func(w io.Writer, c Config) error { _, err := TreeVsCycle(w, c); return err }},
		{"theory", func(w io.Writer, c Config) error { _, err := Theory(w, c); return err }},
	}
	for _, tg := range targets {
		var a, b bytes.Buffer
		if err := tg.run(&a, tiny()); err != nil {
			t.Fatalf("%s: %v", tg.name, err)
		}
		if err := tg.run(&b, tiny()); err != nil {
			t.Fatalf("%s: %v", tg.name, err)
		}
		if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: two runs at one config print different bytes:\n%s\n---\n%s", tg.name, a.String(), b.String())
		}
	}
}
