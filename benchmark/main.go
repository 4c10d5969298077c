// Command benchmark is the repository's performance ledger: five named
// workloads over the whole stack (three paper-regime solver workloads, two
// serving workloads), each checked for correctness, each reporting the
// end-to-end metrics a user sees and — in a separate traced run — one cost
// line per layer. BENCHMARK.json at the repository root declares the same
// workloads and metrics; README.md in this directory explains them.
//
//	go run ./benchmark                       all workloads, tracing off
//	go run ./benchmark -trace 1              ... then each once more, traced
//	go run ./benchmark -workload serve-hit -seed 7 -seconds 18 -trace 0
//	go run ./benchmark -selfcheck            two sets, compared against the bounds
//
// With -workload the run happens in this process and the last line of
// standard output is the result object the benchmark contract asks for.
// Without it every workload runs in a freshly re-exec'd child process.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is the measured window; BENCHMARK.json's run_seconds
// carries the same number.
const defaultSeconds = 18

// outDir receives results, span files and the serve-miss WAL. It is
// relative to the working directory, which is the repository root under
// `go run ./benchmark`.
var outDir = "benchmark/out"

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks every graph, window and probe so the whole matrix runs
	// in seconds; bench_test.go uses it, measurements never do.
	smoke bool
}

// setupRounds is how often a run sets up: three times with tracing off,
// reporting the median — the benchmark contract asks for that, so that one
// slow page-in does not decide setup_s — and once when traced (setup_s is
// not reported there) or smoke-testing.
func setupRounds(cfg config) int {
	if cfg.trace || cfg.smoke {
		return 1
	}
	return 3
}

// A workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(cfg config, rec *recorder, tr *tracer) error
}

var workloads = []workload{
	{
		name: "cycle10-3k",
		why:  "brain3 (10 vertices) on a 2.9k-edge graph: 2^10 colour sets, so cycleJoin/pathJoin and the signature axis of table.Flat do nearly all the work",
		run:  solverWorkload(solverSpecs[0]),
	},
	{
		name: "cycle5-90k",
		why:  "glet2 (5-cycle) on a 90k-edge graph with hubs: same cycle solver, few colour sets, long vertex axis; prices a per-signature win in per-vertex cost",
		run:  solverWorkload(solverSpecs[1]),
	},
	{
		name: "tree8-90k",
		why:  "bintree8 (treewidth 1) on the 90k-edge graph: pathJoin/leafJoin and no cycleJoin, so it bypasses any cycle-kernel change and exposes table and emit changes",
		run:  solverWorkload(solverSpecs[2]),
	},
	{
		name: "serve-hit",
		why:  "closed loop of 2 clients on hot keys, all cached: pure serving-layer work (HTTP+JSON, registry, trial cache, job bookkeeping); the solver is bypassed",
		run:  servingWorkload(false),
	},
	{
		name: "serve-miss",
		why:  "same server with a WAL and every request a never-seen seed: queue wait, colouring draw, a ms-scale solve, cache store and log append per request",
		run:  servingWorkload(true),
	},
}

// recorder collects one run's metrics, raw samples and failures.
type recorder struct {
	values    map[string]float64
	raw       map[string][]float64
	counts    []uint64 // colourful count per trial (solver workloads)
	attempted int
	failed    int
	failures  []string
}

func newRecorder() *recorder {
	return &recorder{values: map[string]float64{}, raw: map[string][]float64{}}
}

func (r *recorder) set(name string, v float64) { r.values[name] = v }

// samples keeps the raw values behind a reported median, so a later A/B
// can compute quartiles from the results file without re-running.
func (r *recorder) samples(name string, vs []float64) { r.raw[name] = vs }

// fail counts one failed operation (or one failed check) and keeps the
// first few messages for the report.
func (r *recorder) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN counts n failed operations under one message.
func (r *recorder) failN(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
}

// environment records where a run happened. The commit comes from git when
// the working directory is a checkout of one, and is "unknown" otherwise.
func environment() envInfo {
	commit := "unknown"
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit}
}

// runFile is what one workload run leaves in outDir.
type runFile struct {
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Seconds     float64              `json:"seconds"`
	Trace       bool                 `json:"trace"`
	Env         envInfo              `json:"env"`
	Result      result               `json:"result"`
	FailedShare float64              `json:"failedShare"`
	Raw         map[string][]float64 `json:"raw"`
	// Counts is the colourful count of every trial of a solver workload,
	// in order; golden.json holds the first of these at seed 1.
	Counts   []uint64 `json:"counts,omitempty"`
	Failures []string `json:"failures,omitempty"`
}

// runOne runs a single workload in this process.
func runOne(cfg config) (runFile, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return runFile{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return runFile{}, err
	}
	rec := newRecorder()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if err := w.run(cfg, rec, tr); err != nil {
		return runFile{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := tr.write(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return runFile{}, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   rec.failed == 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: rec.values[d.Name], Unit: d.Unit}
	}
	return runFile{
		Workload:    w.name,
		Seed:        cfg.seed,
		Seconds:     cfg.seconds,
		Trace:       cfg.trace,
		Env:         environment(),
		Result:      res,
		FailedShare: float64(rec.failed) / float64(max(rec.attempted, 1)),
		Raw:         rec.raw,
		Counts:      rec.counts,
		Failures:    rec.failures,
	}, nil
}

// printRun prints every metric of a run by name, with its unit.
func printRun(rf runFile) {
	mode := "end-to-end"
	if rf.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("workload %s  seed %d  %s\n", rf.Workload, rf.Seed, mode)
	names := make([]string, 0, len(rf.Result.Metrics))
	for n := range rf.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rf.Result.Metrics[n]
		fmt.Printf("  %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  %-34s %16.6g ratio  (%d failed of %d)\n", "failed_share", rf.FailedShare, rf.Result.Failed, rf.Result.Attempted)
	for _, f := range rf.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runChild runs one workload in a fresh process of this same binary and
// reads back the run file it wrote.
func runChild(cfg config) (runFile, error) {
	exe, err := os.Executable()
	if err != nil {
		return runFile{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, fmt.Sprintf("-smoke=%t", cfg.smoke))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return runFile{}, err
	}
	// A child that found failures exits 1 but still reports; one that
	// could not run at all prints no result line.
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return runFile{}, fmt.Errorf("%s: child printed no result (%v): %w", cfg.workload, err, jerr)
	}
	var rf runFile
	b, err := os.ReadFile(runFilePath(cfg))
	if err != nil {
		return runFile{}, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return runFile{}, err
	}
	return rf, nil
}

func runFilePath(cfg config) string {
	t := 0
	if cfg.trace {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("run-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, t))
}

// runSet runs every workload once (and once more traced when asked), each
// in its own process, and returns the run files.
func runSet(cfg config) ([]runFile, error) {
	var runs []runFile
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if trace && !cfg.trace {
				continue
			}
			c := cfg
			c.workload, c.trace = w.name, trace
			rf, err := runChild(c)
			if err != nil {
				return nil, err
			}
			printRun(rf)
			runs = append(runs, rf)
		}
	}
	return runs, nil
}

// benchmarkFile is the part of BENCHMARK.json -selfcheck needs.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// selfcheck runs two full sets back to back on the same build and compares
// every workload × end-to-end metric against its bound. A pair further
// apart than the bound means the ruler cannot resolve a change that small.
func selfcheck(cfg config) (bool, error) {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	cfg.trace = false
	var sets [2][]runFile
	for i := range sets {
		fmt.Printf("== selfcheck set %d ==\n", i+1)
		if sets[i], err = runSet(cfg); err != nil {
			return false, err
		}
	}
	ok := true
	fmt.Printf("\n%-12s %-12s %14s %14s %18s %7s  %s\n", "workload", "metric", "set1", "set2", "set2/set1", "bound", "verdict")
	for i, a := range sets[0] {
		b := sets[1][i]
		if !a.Result.Correct || !b.Result.Correct {
			ok = false
		}
		for _, m := range bf.EndToEnd {
			va, vb := a.Result.Metrics[m.Name].Value, b.Result.Metrics[m.Name].Value
			ratio := vb / va
			verdict := "PASS"
			// Written so that a zero or NaN ratio (a metric that read 0)
			// is unresolved too, not a pass.
			if !(ratio > 0 && ratio <= 1+m.Bound && ratio >= 1-m.Bound) {
				verdict, ok = "UNRESOLVED", false
			}
			fmt.Printf("%-12s %-12s %14.6g %14.6g %8.4f (base %s) %6.0f%%  %s\n",
				a.Workload, m.Name, va, vb, ratio, "set1", 100*m.Bound, verdict)
		}
	}
	return ok, writeJSON(filepath.Join(outDir, "selfcheck.json"), sets)
}

func main() {
	var cfg config
	var trace int
	var check bool
	flag.StringVar(&cfg.workload, "workload", "", "run only this workload, in this process (default: all, one child process each)")
	flag.Int64Var(&cfg.seed, "seed", 1, "drives colourings, key sets and request order; equal seeds give equal inputs")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "measured window per workload")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&check, "selfcheck", false, "run two full sets and compare them against the bounds in BENCHMARK.json")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes, for checking the harness itself; not a measurement")
	flag.Parse()
	cfg.trace = trace != 0
	if flag.NArg() > 0 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments or non-positive -seconds")
		os.Exit(2)
	}

	switch {
	case check:
		ok, err := selfcheck(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
	case cfg.workload == "":
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		runs, err := runSet(cfg)
		if err == nil {
			err = writeJSON(filepath.Join(outDir, "results.json"), map[string]any{"env": environment(), "runs": runs})
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		for _, rf := range runs {
			if !rf.Result.Correct {
				os.Exit(1)
			}
		}
	default:
		rf, err := runOne(cfg)
		if err == nil {
			err = writeJSON(runFilePath(cfg), rf)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		printRun(rf)
		line, err := json.Marshal(rf.Result)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !rf.Result.Correct {
			os.Exit(1)
		}
	}
}
