package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// smoke runs one workload at -smoke sizes into a scratch directory.
func smoke(t *testing.T, name string, trace bool) runFile {
	t.Helper()
	rf, err := runOne(config{workload: name, seed: 3, seconds: 0.1, trace: trace, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rf.Result.Correct || rf.Result.Attempted < 1 {
		t.Fatalf("%s (trace %v): %d of %d failed: %v", name, trace, rf.Result.Failed, rf.Result.Attempted, rf.Failures)
	}
	return rf
}

func sameNames(t *testing.T, what string, got map[string]metricValue, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d defined", what, len(got), len(want))
	}
	for _, d := range want {
		if m, ok := got[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: metric %s (%s) missing or emitted as %+v", what, d.Name, d.Unit, m)
		}
	}
}

// TestDeclaredEqualsEmitted pins BENCHMARK.json to what the driver emits
// and to the benchmark contract's limits.
func TestDeclaredEqualsEmitted(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the driver's default window is %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads declared, %d run (2 to 8 allowed)", len(bf.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d declared as %q (%q), run as %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or why longer than 200", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(what string, declared []declaredMetric, defs []metricDef, limit int, bounded bool) {
		if len(declared) != len(defs) || len(defs) < 1 || len(defs) > limit {
			t.Fatalf("%s: %d declared, %d defined (1 to %d allowed)", what, len(declared), len(defs), limit)
		}
		for i, d := range declared {
			if d.Name != defs[i].Name || d.Unit != defs[i].Unit || d.Better != defs[i].Better {
				t.Errorf("%s %d declared as %+v, defined as %+v", what, i, d, defs[i])
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s %q: bad or repeated name, or bad unit %q", what, d.Name, d.Unit)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s %q: better is %q", what, d.Name, d.Better)
			}
			if bounded != (d.Bound > 0) || d.Bound > 0.25 {
				t.Errorf("%s %q: bound %v", what, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, 16, true)
	check("per_layer", bf.PerLayer, perLayer, 128, false)
	setup := bf.EndToEnd[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s declared as %+v", setup)
	}
	for _, d := range bf.EndToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has bound %v, above setup_s's %v: set-up is the noisiest metric and takes the largest bound", d.Name, d.Bound, setup.Bound)
		}
	}
}

// TestSmoke runs every workload at tiny sizes: untraced once, traced twice.
// The emitted names must be the defined ones, end-to-end metrics are never
// 0, exact counts repeat, and the span file is a forest.
func TestSmoke(t *testing.T) {
	outDir = t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // nothing below depends on timing; halves the wall time on 2 cores
			plain := smoke(t, w.name, false)
			sameNames(t, "end-to-end", plain.Result.Metrics, endToEnd)
			for n, m := range plain.Result.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v", n, m.Value)
				}
			}
			a, b := smoke(t, w.name, true), smoke(t, w.name, true)
			sameNames(t, "per-layer", a.Result.Metrics, perLayer)
			for _, d := range perLayer {
				if va, vb := a.Result.Metrics[d.Name].Value, b.Result.Metrics[d.Name].Value; d.Exact && va != vb {
					t.Errorf("%s is marked exact but read %v, then %v", d.Name, va, vb)
				}
			}

			raw, err := os.ReadFile(filepath.Join(outDir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(raw, &spans); err != nil {
				t.Fatal(err)
			}
			if len(spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			for i, s := range spans {
				if s.ID != i+1 || s.Parent < 0 || s.Parent >= s.ID || s.EndNs < s.StartNs || s.Name == "" {
					t.Errorf("span %+v: bad id, parent, name or interval", s)
				}
			}
		})
	}
}
