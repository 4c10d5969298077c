// Command sgbench regenerates the paper's tables and figures (§8–§10) at a
// configurable scale. Each subcommand corresponds to one artifact; "all"
// runs everything in paper order.
//
// Usage:
//
//	sgbench [flags] table1|fig9|fig10|fig11|fig12|fig13|fig14|fig15|ablation|treecycle|theory|all
//
// Flags scale the study: -scale divides the Table 1 graph sizes, -workers /
// -workerslow set the simulated rank counts (the paper used 512 and 32
// Blue Gene/Q ranks), -graphs and -queries restrict the benchmark set.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
)

func main() {
	var (
		scale      = flag.Int("scale", 0, "stand-in size divisor (default 512)")
		backend    = flag.String("backend", "", "execution backend: sim (default; metrics-faithful: ranks are bands of vertex partitions, every table entry handed over is a message) or parallel (the same runtime, nothing counted)")
		workers    = flag.Int("workers", 0, "high simulated rank count (default 8); under parallel, worker goroutines")
		workersLow = flag.Int("workerslow", 0, "low simulated rank count (default 2); under parallel, worker goroutines")
		seed       = flag.Int64("seed", 1, "random seed")
		trials     = flag.Int("trials", 0, "Figure 15 trials per combo (default 10)")
		relerr     = flag.Float64("relerr", 0, "Figure 15 precision target: report the trial count at which the (relerr, confidence) stopping rule fires")
		confidence = flag.Float64("confidence", 0, "confidence level of -relerr (default 0.95)")
		graphs     = flag.String("graphs", "", "comma-separated stand-in subset")
		queries    = flag.String("queries", "", "comma-separated query subset")
	)
	flag.Parse()
	cfg := exp.Config{
		Scale:      *scale,
		Backend:    *backend,
		Workers:    *workers,
		WorkersLow: *workersLow,
		Seed:       *seed,
		Trials:     *trials,
		RelErr:     *relerr,
		Confidence: *confidence,
		Graphs:     split(*graphs),
		Queries:    split(*queries),
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: sgbench [flags] table1|fig9|fig10|fig11|fig12|fig13|fig14|fig15|ablation|treecycle|theory|all")
		os.Exit(2)
	}
	for _, cmd := range args {
		if err := run(cmd, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "sgbench:", err)
			os.Exit(1)
		}
	}
}

func run(cmd string, cfg exp.Config) error {
	w := os.Stdout
	switch cmd {
	case "table1":
		exp.Table1(w, cfg)
	case "fig9":
		_, err := exp.Figure9(w, cfg)
		return err
	case "fig10":
		_, err := exp.Figure10(w, cfg)
		return err
	case "fig11":
		_, err := exp.Figure11(w, cfg)
		return err
	case "fig12":
		_, err := exp.Figure12(w, cfg)
		return err
	case "fig13":
		if _, err := exp.Figure13Strong(w, cfg); err != nil {
			return err
		}
		_, err := exp.Figure13Weak(w, cfg)
		return err
	case "fig14":
		_, err := exp.Figure14(w, cfg)
		return err
	case "fig15":
		_, err := exp.Figure15(w, cfg)
		return err
	case "theory":
		_, err := exp.Theory(w, cfg)
		return err
	case "ablation":
		_, err := exp.Ablation(w, cfg)
		return err
	case "treecycle":
		_, err := exp.TreeVsCycle(w, cfg)
		return err
	case "all":
		for _, c := range []string{"table1", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "ablation", "treecycle", "theory"} {
			if err := run(c, cfg); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q", cmd)
	}
	return nil
}

func split(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
