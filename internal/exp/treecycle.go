package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/query"
)

// TreeVsCycle reproduces the §8.2 observation that query substructure, not
// size, drives cost: "a 12-vertex complete binary tree query requires 2
// seconds on average, in contrast to the 10-vertex brain3 query which
// requires nearly 2 minutes". Tree queries decompose into leaf-edge blocks
// only (linear-time, the FASCIA case); brain3 contains an 8-cycle.

// TreeVsCycleRow is one query's average cost across the selected graphs.
type TreeVsCycleRow struct {
	Query   string
	K       int
	Cycles  bool
	AvgLoad int64
}

// TreeVsCycle compares the 12-node complete binary tree against the
// catalog's hardest cyclic queries on every selected graph.
func TreeVsCycle(w io.Writer, cfg Config) ([]TreeVsCycleRow, error) {
	cfg = cfg.withDefaults()
	gs := cfg.graphs()
	queries := []*query.Graph{
		query.BinaryTree(12),
		query.PathGraph(10),
		query.MustByName("brain3"),
		query.MustByName("brain2"),
	}
	header(w, fmt.Sprintf("§8.2: tree queries vs cyclic queries (%d ranks, avg over %d graphs)", cfg.Workers, len(gs)))
	fmt.Fprintf(w, "%-10s %3s %7s %14s\n", "Query", "k", "cyclic", "avg load")
	var rows []TreeVsCycleRow
	for _, q := range queries {
		row := TreeVsCycleRow{Query: q.Name, K: q.K, Cycles: !q.IsTree()}
		for _, g := range gs {
			r, err := cfg.runOnce(g, q, core.DB, cfg.Workers, nil)
			if err != nil {
				return rows, err
			}
			row.AvgLoad += r.Stats.TotalLoad
		}
		row.AvgLoad /= int64(len(gs))
		rows = append(rows, row)
		fmt.Fprintf(w, "%-10s %3d %7v %14d\n", row.Query, row.K, row.Cycles, row.AvgLoad)
	}
	fmt.Fprintln(w, "(the paper: the 12-node tree is ~60x cheaper than the 10-node brain3)")
	return rows, nil
}
