// Package archtest pins the design facts the solver, the runtime and the
// service are built around: which function calls what, which methods
// exist, and which deleted names stay deleted. Each fact is one row of
// facts below, with the reason it holds; the checks read the module's
// syntax trees (go/parser) and, for deleted names, its files line by line.
// This directory is left out of every scan: it spells the names it forbids.
package archtest

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var facts = []struct {
	fact, why string
	check     func() error
}{
	// One trial loop, no second estimator.
	{
		"coloring calls CountColorfulContext at one site",
		"there is one estimator: one trial loop calls the solver",
		func() error { return count(callers("internal/coloring", "CountColorfulContext"), 1) },
	},
	{
		"the estimator's deleted forks stay deleted",
		"the forks that used to sit above the trial loop stay deleted",
		func() error {
			return absent(tree("", goFile, "benchmark/"), `RunWith|Predraw|colorGroup|resolveTrials|wireRun`)
		},
	},
	{
		"the trial loop is serial and its rule has no per-call knobs",
		"the paper's parallelism is inside one colouring's count (engine.Runtime), so Session.ExtendTo runs trials one after another on its caller's goroutine; the stopping rule's inputs are a precision target and a trial cap, so the fields that ran trials concurrently, bounded a run by wall time or moved the rule's first stop stay deleted",
		func() error {
			if err := count(where("internal/coloring", goStmt), 0); err != nil {
				return fmt.Errorf("go statements in internal/coloring: %v", err)
			}
			var at []string
			for _, f := range goFiles("", false) {
				if dir := path.Dir(f.rel); dir != "." && dir != "internal/coloring" && dir != "internal/service" {
					continue
				}
				ast.Inspect(f.ast, func(n ast.Node) bool {
					if st, ok := n.(*ast.StructType); ok {
						for _, fd := range st.Fields.List {
							for _, id := range fd.Names {
								if slices.Contains([]string{"MinTrials", "Parallel", "Budget"}, id.Name) {
									at = append(at, f.rel+" "+id.Name)
								}
							}
						}
					}
					return true
				})
			}
			return count(at, 0)
		},
	},
	// One compaction, no second sort.
	{
		"the entry-moving radix sort stays deleted",
		"a table is compacted by its packed key or accumulated in a box; the 32-byte radix sort those replaced stays deleted",
		func() error {
			return absent(tree("", goFile, "benchmark/"), `sortLSD|sortGroups|type varying|varying\{`)
		},
	},
	// One cycle join, no second merge.
	{
		"only boundaryJoin compares (V,U) words by order",
		"a block with boundary nodes has both walks built sorted and boundaryJoin merges them: its cursor is the one order comparison of packed (V,U) words in the solver",
		func() error {
			return same(unique(where("internal/core", orderedVU)), "boundaryJoin")
		},
	},
	{
		"the cycleJoin phase has one producer",
		"a cycle block's two walks are joined by one routine, and its span opens in one place",
		func() error { return count(where("", phaseProducer, "benchmark/"), 1) },
	},
	{
		"a root cycle has one form",
		"a root cycle is counted a start at a time (perStart): its walks are rows built, joined and dropped in a task's scratch, so the root join's two forms — a streamed walk table and a pulled last step — and the partner tables they probed stay deleted",
		func() error {
			return count(where("internal/core", func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				return ok && slices.Contains([]string{"pullJoin", "streamJoin", "partners", "indexPartners"}, id.Name)
			}), 0)
		},
	},
	{
		"the lookups the partner probe replaced stay deleted",
		"partner rows and the per-group search went when the probe replaced them",
		func() error {
			return absent(tree("internal/core", goFile), `withSig|layRows|rowed\(|dropBit|partner\(`)
		},
	},
	// One node step: a row × row product through one pair table.
	{
		"PairsOf is read only by the node steps' kernels",
		"a node step (Figure 7's NodeJoin) is the product of two own rows through the colour-free pair table: in one kernel (combine) fed from a start-free walk's rows (freeNode's meet, which nodeJoin and the fused pullNode share) and from a walk's (U, XY) groups (nodeJoin), and in the per-start pass's node step (nodeStep), whose every product and sum is checked; no other step combines two tables' counts that way",
		func() error {
			if err := same(callers("", "PairsOf"), "freeNode", "nodeJoin", "nodeStep"); err != nil {
				return fmt.Errorf("PairsOf: %v", err)
			}
			if err := same(callers("internal/core", "combine"), "meet", "nodeJoin"); err != nil {
				return fmt.Errorf("combine: %v", err)
			}
			return nil
		},
	},
	{
		"the entry-by-entry node join stays deleted",
		"nodeJoin combines rows through the pair table; the per-pair signature test and rank lookup it replaced stay deleted",
		func() error { return absent(tree("", goFile, "benchmark/"), `nodeCell`) },
	},
	// One pull form, for data edges.
	{
		"engine has one Pull method",
		"a data-edge step runs in pull form through one runtime method, Runtime.Pull",
		func() error { return count(methods("internal/engine", "Pull", "*Sharded"), 1) },
	},
	{
		"pullEdge and pullNode each call Pull once",
		"a start-free walk's data edge (pullEdge; a first edge too) and that edge fused with the node step after it (pullNode) pull; no other step writes only its own shard from others'",
		func() error { return same(callers("internal/core", "Pull"), "pullEdge", "pullNode") },
	},
	{
		"initEdge and edgeJoin write no box row",
		"a pushed edge step appends entries, so its messages are the entries a shard absorbs from its stages",
		func() error {
			for _, f := range callers("internal/core", "Row") {
				if f == "initEdge" || f == "edgeJoin" {
					return fmt.Errorf("%s writes box rows through a lane", f)
				}
			}
			return nil
		},
	},
	// One bookkeeping: /metrics is /v1/stats walked.
	{
		"the service registers counters and gauges only in the Stats walk's setter and the request counter",
		"/metrics is the /v1/stats snapshot walked: the walk's one leaf setter registers every series, beside the request counter the HTTP middleware bumps live",
		func() error {
			if err := same(callers("internal/service", "Counter"), "observeRequest", "set"); err != nil {
				return fmt.Errorf("Counter: %v", err)
			}
			if err := same(callers("internal/service", "Gauge"), "set"); err != nil {
				return fmt.Errorf("Gauge: %v", err)
			}
			return nil
		},
	},
	{
		`a "subgraph_ literal lies only in metrics.go's metric-name const block`,
		"a family name is spelled in a Stats field's metric tag or in the metric-name const block, nowhere else",
		func() error {
			for _, at := range where("internal/service", familyLiteral) {
				if !strings.HasPrefix(at, "metrics.go const metric") {
					return fmt.Errorf(`a "subgraph_ literal lies in %s`, at)
				}
			}
			return nil
		},
	},
	// One liveness signal per ring peer.
	{
		"a ring peer's liveness is one bit, written by ReportSuccess, ReportFailure and CheckOnce through mark alone; in internal/cluster nothing calls ReportSuccess or ReportFailure",
		"a peer is up or down by the last probe or forward outcome, and nothing else gates a forward; a probe's outcome moves the bit without counting as a forward, and the circuit breaker that gated it a second time stays deleted",
		func() error {
			if err := absent(tree("internal/cluster", goFile), `Breaker|breaker`); err != nil {
				return err
			}
			if err := same(unique(where("internal/cluster", livenessWrite)), "mark"); err != nil {
				return fmt.Errorf("down written: %v", err)
			}
			if err := same(callers("internal/cluster", "mark"), "CheckOnce", "ReportFailure", "ReportSuccess"); err != nil {
				return fmt.Errorf("mark called: %v", err)
			}
			calls := append(callers("internal/cluster", "ReportSuccess"), callers("internal/cluster", "ReportFailure")...)
			return count(calls, 0)
		},
	},
	{
		"the ring's handoff stays deleted",
		"membership is static and a new home starts its keys cold: the run import, the rebalance that pushed to it, the durable-log reader it exported from and the readiness state an import held are gone, and /healthz is the one probe",
		func() error {
			return absent(tree("", programFile, "benchmark/"), `ReadRuns|handoff|/v1/cluster/runs|/v1/cluster/rebalance|/readyz`)
		},
	},
	// One superstep runtime, no second Step.
	{
		"engine has one Step method",
		"there is one superstep runtime, engine.Runtime: sim, parallel, a dist rank and the dist coordinator run its Step",
		func() error { return count(methods("internal/engine", "Step", "*Sharded"), 1) },
	},
	{
		"the per-backend runtimes and the second task pool stay deleted",
		"a backend chooses only whether staged entries are counted and whether lanes go on a wire; the per-backend types and the second task pool stay deleted",
		func() error {
			return absent(tree("internal/engine", anyFile), `RunEach|type (Cluster|Parallel) struct`)
		},
	},
	{
		"dist has no Step or Run method",
		"a dist rank and the coordinator run engine.Runtime's Step on its task pool, not a superstep or pool of their own",
		func() error {
			return count(append(methods("internal/dist", "Step", ""), methods("internal/dist", "Run", "")...), 0)
		},
	},
	// Reached or removed, and what was removed stays removed.
	{
		"the second load generator stays deleted, and no prose points at it",
		"no test, CI step or workload reached the hand-probe load generator; benchmark/ is the one load harness",
		func() error {
			return absent(tree("", notRecord, "benchmark/", ".github/"), `sgload`)
		},
	},
	{
		"the dense-index compaction tier stays deleted",
		"a dense vertex × signature shard is a box, opened as it is written or at compaction; box.go alone decides",
		func() error { return absent(tree("", goFile), `func \(p \*packing\) index|denseFactor`) },
	},
	{
		"a dist job is not told its partition count",
		"only dist's coarse partitions needed it, and dist cut the grain rule's",
		func() error { return absent(tree("internal/dist", goFile), `^[ \t]+Parts[ \t]`) },
	},
}

func TestArchitecture(t *testing.T) {
	for _, f := range facts {
		t.Run(f.fact, func(t *testing.T) {
			if err := f.check(); err != nil {
				t.Errorf("%v\nwhy it holds: %s", err, f.why)
			}
		})
	}
}

// callers returns the top-level function around each call of name — a
// plain call name(…) or a method call x.name(…) — in the non-test Go files
// under dir, one element per call.
func callers(dir, name string) []string {
	return where(dir, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		return ok && ident(c.Fun) == name
	})
}

// methods returns the receiver of each method called name declared under
// dir, test files included, whose first parameter's type is firstParam
// ("" for any).
func methods(dir, name, firstParam string) []string {
	var recv []string
	for _, f := range goFiles(dir, true) {
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != name {
				continue
			}
			ps := fn.Type.Params.List
			if firstParam == "" || len(ps) > 0 && types.ExprString(ps[0].Type) == firstParam {
				recv = append(recv, types.ExprString(fn.Recv.List[0].Type)+"."+name)
			}
		}
	}
	return recv
}

// absent reports every line of files that re matches, as grep prints it.
func absent(files []string, re string) error {
	rx := regexp.MustCompile(re)
	var hits []string
	for _, rel := range files {
		b, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(nil, len(b)+1)
		for n := 1; sc.Scan(); n++ {
			if rx.Match(sc.Bytes()) {
				hits = append(hits, fmt.Sprintf("%s:%d: %s", rel, n, sc.Text()))
			}
		}
	}
	if len(hits) > 0 {
		return fmt.Errorf("/%s/ matches:\n%s", re, strings.Join(hits, "\n"))
	}
	return nil
}

// where returns, for each node of the non-test Go files under dir (outside
// skip) that match accepts, where it lies: the name of its top-level
// function, or for a package-level declaration "file tok name" (say
// "metrics.go const metricPrefix").
func where(dir string, match func(ast.Node) bool, skip ...string) []string {
	var at []string
	for _, f := range goFiles(dir, false, skip...) {
		for _, d := range f.ast.Decls {
			visit := func(label string, n ast.Node) {
				ast.Inspect(n, func(n ast.Node) bool {
					if n != nil && match(n) {
						at = append(at, label)
					}
					return true
				})
			}
			switch d := d.(type) {
			case *ast.FuncDecl:
				visit(d.Name.Name, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					name := ""
					switch s := s.(type) {
					case *ast.ValueSpec:
						name = s.Names[0].Name
					case *ast.TypeSpec:
						name = s.Name.Name
					}
					visit(fmt.Sprintf("%s %s %s", path.Base(f.rel), d.Tok, name), s)
				}
			}
		}
	}
	return at
}

// orderedVU matches an order comparison one of whose sides is a .VU word.
func orderedVU(n ast.Node) bool {
	b, ok := n.(*ast.BinaryExpr)
	if !ok || b.Op != token.LSS && b.Op != token.GTR && b.Op != token.LEQ && b.Op != token.GEQ {
		return false
	}
	isVU := func(e ast.Expr) bool { s, ok := e.(*ast.SelectorExpr); return ok && s.Sel.Name == "VU" }
	return isVU(b.X) || isVU(b.Y)
}

func goStmt(n ast.Node) bool { _, ok := n.(*ast.GoStmt); return ok }

// phaseProducer matches a span of the cycleJoin phase opened or added:
// x.Start(PhaseCycleJoin, …) or x.Add(PhaseCycleJoin, …).
func phaseProducer(n ast.Node) bool {
	c, ok := n.(*ast.CallExpr)
	if !ok || len(c.Args) == 0 || ident(c.Args[0]) != "PhaseCycleJoin" {
		return false
	}
	s, ok := c.Fun.(*ast.SelectorExpr)
	return ok && (s.Sel.Name == "Start" || s.Sel.Name == "Add")
}

// livenessWrite matches a write of a peer's liveness bit: x.down.Store(…),
// x.down.Swap(…) or x.down.CompareAndSwap(…).
func livenessWrite(n ast.Node) bool {
	c, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	s, ok := c.Fun.(*ast.SelectorExpr)
	return ok && ident(s.X) == "down" && slices.Contains([]string{"Store", "Swap", "CompareAndSwap"}, s.Sel.Name)
}

// familyLiteral matches a string literal that spells a metric family:
// "subgraph_…", or a struct tag holding one.
func familyLiteral(n ast.Node) bool {
	l, ok := n.(*ast.BasicLit)
	return ok && l.Kind == token.STRING && (strings.Contains(l.Value, `"subgraph_`) || strings.HasPrefix(l.Value, "`subgraph_"))
}

// ident is the name an expression ends in: x for x, and y for x.y.
func ident(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

func count(got []string, n int) error {
	if len(got) != n {
		return fmt.Errorf("%d found (%s), want %d", len(got), strings.Join(got, ", "), n)
	}
	return nil
}

// same compares got, a multiset, with want.
func same(got []string, want ...string) error {
	got = slices.Sorted(slices.Values(got))
	if !slices.Equal(got, want) {
		return fmt.Errorf("found in [%s], want [%s]", strings.Join(got, " "), strings.Join(want, " "))
	}
	return nil
}

func unique(s []string) []string { return slices.Compact(slices.Sorted(slices.Values(s))) }

func goFile(rel string) bool  { return strings.HasSuffix(rel, ".go") }
func anyFile(rel string) bool { return true }

// programFile keeps the non-test Go files: a test may name a deleted route
// to check that it is not served.
func programFile(rel string) bool { return goFile(rel) && !strings.HasSuffix(rel, "_test.go") }

// notRecord keeps every file but the Markdown at the module root that
// records the project's changes, plans and tasks, which name what was
// removed: of the root's Markdown it keeps the README and the paper's texts.
func notRecord(rel string) bool {
	return strings.Contains(rel, "/") || !strings.HasSuffix(rel, ".md") ||
		slices.Contains([]string{"README.md", "PAPER.md", "PAPERS.md", "SNIPPETS.md"}, rel)
}

// tree lists the files under dir ("" for the whole module) that keep
// accepts, as paths from the module root, leaving out the paths under each
// of skip, this directory, and what .git and the build leave behind.
// Like a git pathspec, dir reaches into its subdirectories.
func tree(dir string, keep func(rel string) bool, skip ...string) []string {
	var files []string
	skip = append(skip, "internal/archtest/")
	err := filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			rel += "/"
		}
		left := d.Name() == ".git" || d.Name() == ".bench_build"
		for _, s := range skip {
			left = left || strings.HasPrefix(rel, s)
		}
		switch {
		case left && d.IsDir():
			return fs.SkipDir
		case !left && !d.IsDir() && keep(rel) && !binary(p):
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	return files
}

// binary reports a file git would call binary (a NUL in its first 8000
// bytes): a test binary or a profile the build left in the tree.
func binary(p string) bool {
	f, err := os.Open(p)
	if err != nil {
		return false
	}
	defer f.Close()
	b := make([]byte, 8000)
	n, _ := f.Read(b)
	return bytes.IndexByte(b[:n], 0) >= 0
}

type goSource struct {
	rel string
	ast *ast.File
}

var parsed = map[string]*ast.File{} // path from the module root → its syntax tree

// goFiles parses (once) the Go files under dir outside skip, test files
// only where tests is set.
func goFiles(dir string, tests bool, skip ...string) []goSource {
	var out []goSource
	for _, rel := range tree(dir, goFile, skip...) {
		if !tests && strings.HasSuffix(rel, "_test.go") {
			continue
		}
		f := parsed[rel]
		if f == nil {
			var err error
			if f, err = parser.ParseFile(token.NewFileSet(), filepath.Join(root, rel), nil, parser.SkipObjectResolution); err != nil {
				panic(err)
			}
			parsed[rel] = f
		}
		out = append(out, goSource{rel, f})
	}
	return out
}

// root is the module root, seen from this package's directory, where go
// test runs its tests.
const root = "../.."
