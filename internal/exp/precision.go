package exp

import (
	"fmt"
	"io"
	"math"

	"repro/internal/coloring"
	"repro/internal/core"
)

// This file regenerates Figure 15: the precision of color coding. For each
// graph-query combination we run independent colorings and compute the
// coefficient of variation of the colorful counts (stddev/mean — the §8.6
// "CV ≤ 0.1 means ≈10% accuracy" reading); the summary reports the
// fraction of combinations with CV ≤ 0.1 after 3 trials and after the full
// trial budget.

// Figure15Cell is one combination's precision measurement.
type Figure15Cell struct {
	Graph, Query string
	Trials       int
	CV3          float64 // CV after the first 3 trials
	CVFull       float64 // CV after all trials
	Estimate     float64 // scaled match-count estimate
	// TrialsToTarget is the trial count at which the adaptive
	// (Config.RelErr, Config.Confidence) stopping rule fires, walked over
	// the same counts; 0 when no target is configured. Capped at Trials —
	// a cell reporting the cap may simply not have met the target.
	TrialsToTarget int
}

// Figure15Result summarizes the precision study.
type Figure15Result struct {
	Cells        []Figure15Cell
	FracGood3    float64 // CV ≤ 0.1 with 3 trials
	FracGoodFull float64 // CV ≤ 0.1 with all trials
}

// Figure15 measures the coefficient of variation of the colorful count
// across cfg.Trials random colorings for every combination.
func Figure15(w io.Writer, cfg Config) (Figure15Result, error) {
	cfg = cfg.withDefaults()
	var res Figure15Result
	header(w, fmt.Sprintf("Figure 15: color-coding precision, %d trials per combo", cfg.Trials))
	adaptive := cfg.RelErr > 0
	if adaptive {
		fmt.Fprintf(w, "%-12s %-10s %10s %10s %14s %10s\n", "Graph", "Query", "CV@3", "CV@full", "estimate",
			fmt.Sprintf("T@±%.0f%%", 100*cfg.RelErr))
	} else {
		fmt.Fprintf(w, "%-12s %-10s %10s %10s %14s\n", "Graph", "Query", "CV@3", "CV@full", "estimate")
	}
	for _, g := range cfg.graphs() {
		for _, q := range cfg.queries() {
			est, err := coloring.Run(g, q, coloring.Options{
				Trials: cfg.Trials,
				Seed:   cfg.comboSeed(g.Name, q.Name),
				Core:   core.Options{Algorithm: core.DB, Backend: cfg.Backend, Workers: cfg.Workers},
			})
			if err != nil {
				return res, err
			}
			cell := Figure15Cell{
				Graph: g.Name, Query: q.Name, Trials: cfg.Trials,
				CV3:      cvOfPrefix(est.Counts, 3),
				CVFull:   est.CV,
				Estimate: est.Matches,
			}
			if adaptive {
				rule := coloring.Adaptive{
					Precision: coloring.Precision{RelErr: cfg.RelErr, Confidence: cfg.Confidence},
					MaxTrials: cfg.Trials,
				}
				cell.TrialsToTarget, _ = rule.StopAt(q.K, est.Counts)
			}
			res.Cells = append(res.Cells, cell)
			if adaptive {
				fmt.Fprintf(w, "%-12s %-10s %10.3f %10.3f %14.1f %10d\n",
					cell.Graph, cell.Query, cell.CV3, cell.CVFull, cell.Estimate, cell.TrialsToTarget)
				continue
			}
			fmt.Fprintf(w, "%-12s %-10s %10.3f %10.3f %14.1f\n",
				cell.Graph, cell.Query, cell.CV3, cell.CVFull, cell.Estimate)
		}
	}
	var good3, goodFull int
	for _, c := range res.Cells {
		if c.CV3 <= 0.1 {
			good3++
		}
		if c.CVFull <= 0.1 {
			goodFull++
		}
	}
	if n := len(res.Cells); n > 0 {
		res.FracGood3 = float64(good3) / float64(n)
		res.FracGoodFull = float64(goodFull) / float64(n)
	}
	fmt.Fprintf(w, "summary: CV ≤ 0.1 on %.0f%% of combos at 3 trials, %.0f%% at %d trials\n",
		100*res.FracGood3, 100*res.FracGoodFull, cfg.Trials)
	return res, nil
}

// cvOfPrefix computes stddev/mean over the first n counts.
func cvOfPrefix(counts []uint64, n int) float64 {
	if n > len(counts) {
		n = len(counts)
	}
	if n < 2 {
		return 0
	}
	var sum float64
	for _, c := range counts[:n] {
		sum += float64(c)
	}
	mean := sum / float64(n)
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, c := range counts[:n] {
		d := float64(c) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(n-1)) / mean
}
