package exp

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// This file regenerates Table 1 and Figures 9–13: graph characteristics,
// average DB cost, the PS-vs-DB improvement factor, load balance, and
// strong/weak scaling, all in the load model.

// Table1 prints the stand-in graph characteristics in the paper's Table 1
// shape ("Avg Deg" is m/n as in the paper) and returns the rows.
func Table1(w io.Writer, cfg Config) []graph.Stats {
	cfg = cfg.withDefaults()
	header(w, fmt.Sprintf("Table 1: data graphs (stand-ins at 1/%d scale)", cfg.Scale))
	fmt.Fprintf(w, "%-12s %-10s %9s %10s %8s %8s\n", "Graph", "Domain", "Nodes", "Edges", "AvgDeg", "MaxDeg")
	var rows []graph.Stats
	specs := gen.StandinSpecs()
	for i, g := range cfg.graphs() {
		st := g.Stats()
		domain := ""
		for _, s := range specs {
			if s.Name == st.Name {
				domain = s.Domain
			}
		}
		fmt.Fprintf(w, "%-12s %-10s %9d %10d %8.1f %8d\n",
			st.Name, domain, st.Nodes, st.Edges, float64(st.Edges)/float64(st.Nodes), st.MaxDeg)
		rows = append(rows, st)
		_ = i
	}
	return rows
}

// Figure9Result holds the per-graph and per-query average DB loads.
type Figure9Result struct {
	Runs      []Run
	LoadGraph map[string]int64 // average total load per graph
	LoadQuery map[string]int64
}

// Figure9 runs DB (heuristic plan) on every graph-query combination and
// prints the average total load per graph (across queries) and per query
// (across graphs), the paper's Figure 9 in the load model.
func Figure9(w io.Writer, cfg Config) (Figure9Result, error) {
	cfg = cfg.withDefaults()
	res := Figure9Result{
		LoadGraph: map[string]int64{},
		LoadQuery: map[string]int64{},
	}
	gs, qs := cfg.graphs(), cfg.queries()
	for _, g := range gs {
		for _, q := range qs {
			r, err := cfg.runOnce(g, q, core.DB, cfg.Workers, nil)
			if err != nil {
				return res, err
			}
			res.Runs = append(res.Runs, r)
			res.LoadGraph[g.Name] += r.Stats.TotalLoad
			res.LoadQuery[q.Name] += r.Stats.TotalLoad
		}
	}
	for k := range res.LoadGraph {
		res.LoadGraph[k] /= int64(len(qs))
	}
	for k := range res.LoadQuery {
		res.LoadQuery[k] /= int64(len(gs))
	}
	header(w, fmt.Sprintf("Figure 9: average DB total load (%d ranks)", cfg.Workers))
	fmt.Fprintf(w, "%-12s %14s\n", "Graph", "avg load")
	for _, g := range gs {
		fmt.Fprintf(w, "%-12s %14d\n", g.Name, res.LoadGraph[g.Name])
	}
	fmt.Fprintf(w, "%-12s %14s\n", "Query", "avg load")
	for _, q := range qs {
		fmt.Fprintf(w, "%-12s %14d\n", q.Name, res.LoadQuery[q.Name])
	}
	return res, nil
}

// IFCell is one Figure 10 matrix cell: the improvement factor of DB over
// PS on a graph-query combination.
type IFCell struct {
	Graph, Query string
	IFLoad       float64 // maxload(PS)/maxload(DB)
}

// Figure10Result summarizes the improvement-factor matrix at one rank count.
type Figure10Result struct {
	Workers  int
	Cells    []IFCell
	WinsFrac float64 // fraction of combos with IFLoad > 1
	AvgIF    float64 // average IFLoad
	MaxIF    float64
}

// Figure10 compares PS and DB on every combination at the low and high
// rank counts, printing the improvement-factor matrices (Figure 10a/b).
// Both algorithms run the same per-combo coloring.
func Figure10(w io.Writer, cfg Config) ([2]Figure10Result, error) {
	cfg = cfg.withDefaults()
	var out [2]Figure10Result
	for i, workers := range []int{cfg.WorkersLow, cfg.Workers} {
		res := Figure10Result{Workers: workers}
		header(w, fmt.Sprintf("Figure 10%c: improvement factor of DB over PS (%d ranks)", 'a'+i, workers))
		fmt.Fprintf(w, "%-12s %-10s %10s\n", "Graph", "Query", "IF(load)")
		for _, g := range cfg.graphs() {
			for _, q := range cfg.queries() {
				ps, err := cfg.runOnce(g, q, core.PS, workers, nil)
				if err != nil {
					return out, err
				}
				db, err := cfg.runOnce(g, q, core.DB, workers, nil)
				if err != nil {
					return out, err
				}
				if ps.Count != db.Count {
					return out, fmt.Errorf("exp: PS/DB disagree on %s/%s: %d vs %d", g.Name, q.Name, ps.Count, db.Count)
				}
				cell := IFCell{
					Graph:  g.Name,
					Query:  q.Name,
					IFLoad: ratio(float64(ps.Stats.MaxLoad), float64(db.Stats.MaxLoad)),
				}
				res.Cells = append(res.Cells, cell)
				fmt.Fprintf(w, "%-12s %-10s %10.2f\n", g.Name, q.Name, cell.IFLoad)
			}
		}
		wins := 0
		var sum float64
		for _, c := range res.Cells {
			if c.IFLoad > 1 {
				wins++
			}
			sum += c.IFLoad
			if c.IFLoad > res.MaxIF {
				res.MaxIF = c.IFLoad
			}
		}
		res.WinsFrac = float64(wins) / float64(len(res.Cells))
		res.AvgIF = sum / float64(len(res.Cells))
		fmt.Fprintf(w, "summary: DB wins %.0f%% of combos; avg IF %.2f; max IF %.2f\n",
			100*res.WinsFrac, res.AvgIF, res.MaxIF)
		out[i] = res
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Figure11Row compares PS and DB load balance for one query on the enron
// stand-in (normalized as in the paper's Figure 11).
type Figure11Row struct {
	Query                string
	MaxLoadPS, MaxLoadDB int64
	AvgLoadPS, AvgLoadDB float64
	NormMaxDB, NormAvgDB float64 // DB value / PS value (PS normalized to 1)
}

// Figure11 reproduces the load-balance study: normalized maximum load and
// average load of DB vs PS on the enron stand-in
// (the paper uses the nine queries of its Figure 11).
func Figure11(w io.Writer, cfg Config) ([]Figure11Row, error) {
	cfg = cfg.withDefaults()
	g, ok := gen.StandinByName("enron", cfg.Scale, cfg.Seed)
	if !ok {
		return nil, fmt.Errorf("exp: enron stand-in missing")
	}
	header(w, fmt.Sprintf("Figure 11: normalized max load / avg load on %s (%d ranks), PS=1.0", g.Name, cfg.Workers))
	fmt.Fprintf(w, "%-10s %10s %10s\n", "Query", "max(DB)", "avg(DB)")
	var rows []Figure11Row
	for _, q := range cfg.queries() {
		if q.Name == "brain3" {
			continue // the paper's Figure 11 plots nine queries, without brain3
		}
		ps, err := cfg.runOnce(g, q, core.PS, cfg.Workers, nil)
		if err != nil {
			return rows, err
		}
		db, err := cfg.runOnce(g, q, core.DB, cfg.Workers, nil)
		if err != nil {
			return rows, err
		}
		row := Figure11Row{
			Query:     q.Name,
			MaxLoadPS: ps.Stats.MaxLoad, MaxLoadDB: db.Stats.MaxLoad,
			AvgLoadPS: ps.Stats.AvgLoad, AvgLoadDB: db.Stats.AvgLoad,
			NormMaxDB: ratio(float64(db.Stats.MaxLoad), float64(ps.Stats.MaxLoad)),
			NormAvgDB: ratio(db.Stats.AvgLoad, ps.Stats.AvgLoad),
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-10s %10.3f %10.3f\n", q.Name, row.NormMaxDB, row.NormAvgDB)
	}
	return rows, nil
}

// Figure12Result holds the DB scaling ratios between the low and high rank
// counts, averaged per query and per graph (the paper's Figure 12).
type Figure12Result struct {
	PerQuery map[string]float64 // modeled speedup: maxload(low)/maxload(high)
	PerGraph map[string]float64
}

// Figure12 measures DB's speedup from the low to the high rank count on
// every combination, using the load model (max per-worker load bounds the
// BSP step time). Ideal speedup is Workers/WorkersLow.
func Figure12(w io.Writer, cfg Config) (Figure12Result, error) {
	cfg = cfg.withDefaults()
	res := Figure12Result{PerQuery: map[string]float64{}, PerGraph: map[string]float64{}}
	gs, qs := cfg.graphs(), cfg.queries()
	for _, g := range gs {
		for _, q := range qs {
			lo, err := cfg.runOnce(g, q, core.DB, cfg.WorkersLow, nil)
			if err != nil {
				return res, err
			}
			hi, err := cfg.runOnce(g, q, core.DB, cfg.Workers, nil)
			if err != nil {
				return res, err
			}
			sp := ratio(float64(lo.Stats.MaxLoad), float64(hi.Stats.MaxLoad))
			res.PerQuery[q.Name] += sp
			res.PerGraph[g.Name] += sp
		}
	}
	for k := range res.PerQuery {
		res.PerQuery[k] /= float64(len(gs))
	}
	for k := range res.PerGraph {
		res.PerGraph[k] /= float64(len(qs))
	}
	header(w, fmt.Sprintf("Figure 12: avg modeled DB speedup, %d → %d ranks (ideal %.1fx)",
		cfg.WorkersLow, cfg.Workers, float64(cfg.Workers)/float64(cfg.WorkersLow)))
	for _, q := range qs {
		fmt.Fprintf(w, "query %-10s %6.2fx\n", q.Name, res.PerQuery[q.Name])
	}
	for _, g := range gs {
		fmt.Fprintf(w, "graph %-10s %6.2fx\n", g.Name, res.PerGraph[g.Name])
	}
	return res, nil
}

// ScalingPoint is one (ranks, query) measurement in Figure 13.
type ScalingPoint struct {
	Workers int
	Query   string
	MaxLoad int64
	Speedup float64 // modeled, relative to the smallest rank count
}

// Figure13Strong reproduces the strong-scaling study on the enron stand-in:
// rank counts double from WorkersLow up to Workers, speedup measured by the
// load model against the smallest count.
func Figure13Strong(w io.Writer, cfg Config) ([]ScalingPoint, error) {
	cfg = cfg.withDefaults()
	g, _ := gen.StandinByName("enron", cfg.Scale, cfg.Seed)
	var ranks []int
	for r := cfg.WorkersLow; r <= cfg.Workers; r *= 2 {
		ranks = append(ranks, r)
	}
	header(w, fmt.Sprintf("Figure 13 (strong): DB on %s, ranks %v", g.Name, ranks))
	fmt.Fprintf(w, "%-10s", "Query")
	for _, r := range ranks {
		fmt.Fprintf(w, " %8dr", r)
	}
	fmt.Fprintln(w)
	var pts []ScalingPoint
	for _, q := range cfg.queries() {
		base := int64(0)
		fmt.Fprintf(w, "%-10s", q.Name)
		for _, r := range ranks {
			run, err := cfg.runOnce(g, q, core.DB, r, nil)
			if err != nil {
				return pts, err
			}
			if base == 0 {
				base = run.Stats.MaxLoad
			}
			sp := ratio(float64(base), float64(run.Stats.MaxLoad))
			pts = append(pts, ScalingPoint{Workers: r, Query: q.Name, MaxLoad: run.Stats.MaxLoad, Speedup: sp})
			fmt.Fprintf(w, " %8.2fx", sp)
		}
		fmt.Fprintln(w)
	}
	return pts, nil
}

// Figure13Weak reproduces the weak-scaling study: R-MAT graphs with ~1K
// vertices per rank (Graph500 parameters, edge factor 16), rank count
// doubling; the per-rank load should stay roughly flat.
func Figure13Weak(w io.Writer, cfg Config) ([]ScalingPoint, error) {
	cfg = cfg.withDefaults()
	var ranks []int
	for r := cfg.WorkersLow; r <= cfg.Workers; r *= 2 {
		ranks = append(ranks, r)
	}
	header(w, fmt.Sprintf("Figure 13 (weak): DB on R-MAT, %d vertices/rank, edge factor %d, ranks %v",
		cfg.WeakPerRank, cfg.WeakEdgeFactor, ranks))
	fmt.Fprintf(w, "%-10s", "Query")
	for _, r := range ranks {
		fmt.Fprintf(w, " %10dr", r)
	}
	fmt.Fprintln(w)
	var pts []ScalingPoint
	for _, q := range cfg.queries() {
		fmt.Fprintf(w, "%-10s", q.Name)
		for i, r := range ranks {
			scale := 1
			for 1<<scale < cfg.WeakPerRank*r {
				scale++
			}
			g := gen.RMAT(fmt.Sprintf("rmat%d", r), scale, cfg.WeakEdgeFactor, gen.Graph500, rand.New(rand.NewSource(cfg.Seed+int64(i))))
			run, err := cfg.runOnce(g, q, core.DB, r, nil)
			if err != nil {
				return pts, err
			}
			pts = append(pts, ScalingPoint{Workers: r, Query: q.Name, MaxLoad: run.Stats.MaxLoad})
			fmt.Fprintf(w, " %10d", run.Stats.MaxLoad)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(cells are max per-rank load; flat rows = ideal weak scaling)")
	return pts, nil
}
