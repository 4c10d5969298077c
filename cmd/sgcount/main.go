// Command sgcount estimates the number of occurrences of a treewidth-2
// query graph in a data graph by color coding (Chakaravarthy et al.,
// IPDPS 2016). The data graph comes from an edge-list file or a built-in
// generator; the query from the paper's Figure 8 catalog or a parametric
// family.
//
// Examples:
//
//	sgcount -graph data.edges -query brain1 -trials 5
//	sgcount -standin enron -scale 512 -query glet2 -alg PS -workers 8
//	sgcount -powerlaw 10000 -alpha 1.5 -query cycle5 -exact
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	subgraph "repro"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "edge-list file for the data graph")
		standin   = flag.String("standin", "", "Table 1 stand-in graph name (e.g. enron, epinions)")
		scale     = flag.Int("scale", 512, "stand-in size divisor")
		powerlaw  = flag.Int("powerlaw", 0, "generate a power-law graph with this many vertices")
		alpha     = flag.Float64("alpha", 1.5, "power-law exponent (1,2)")
		rmat      = flag.Int("rmat", 0, "generate an R-MAT graph with 2^scale vertices")
		queryName = flag.String("query", "glet1", "query name (Figure 8 catalog, satellite, cycle<L>, path<L>, star<L>, bintree<L>)")
		queryFile = flag.String("queryfile", "", "read the query graph from an edge-list file instead")
		algName   = flag.String("alg", "DB", "cycle solver: DB (degree-based) or PS (path-splitting baseline)")
		backend   = flag.String("backend", "", "execution backend: sim (default; the instrumented reference: messages and per-rank load as the paper counts them) or parallel (the same shared-memory runtime with nothing counted and GOMAXPROCS workers by default; within 10% of sim per trial on 90k-edge graphs)")
		workers   = flag.Int("workers", 8, "simulated ranks (sim) or worker goroutines (parallel): bands of the same vertex partitions, whose number follows the graph")
		trials    = flag.Int("trials", 3, "independent colorings (ignored when -relerr is set)")
		relerr    = flag.Float64("relerr", 0, "target relative error (e.g. 0.1 = ±10%); > 0 runs trials adaptively until the target confidence interval is met")
		conf      = flag.Float64("confidence", 0.95, "confidence level of the -relerr target, in (0,1)")
		maxTrials = flag.Int("max-trials", 0, "adaptive trial cap for -relerr (0 = 1024)")
		seed      = flag.Int64("seed", 1, "random seed")
		exact     = flag.Bool("exact", false, "also brute-force the exact count (small graphs only)")
		stats     = flag.Bool("stats", false, "print engine load/communication statistics")
		pervertex = flag.Int("pervertex", 0, "print the top-N vertices by per-vertex colorful matches (one coloring)")
	)
	flag.Parse()

	g, err := loadGraph(*graphPath, *standin, *scale, *powerlaw, *alpha, *rmat, *seed)
	if err != nil {
		fatal(err)
	}
	q, err := loadQuery(*queryName, *queryFile)
	if err != nil {
		fatal(err)
	}
	var alg subgraph.Algorithm
	switch *algName {
	case "DB", "db":
		alg = subgraph.DB
	case "PS", "ps":
		alg = subgraph.PS
	default:
		fatal(fmt.Errorf("unknown algorithm %q (want DB or PS)", *algName))
	}

	st := g.Stats()
	fmt.Printf("graph  %s: %d nodes, %d edges, max degree %d\n", st.Name, st.Nodes, st.Edges, st.MaxDeg)
	fmt.Printf("query  %s\n", q)
	plan, err := subgraph.Plan(q)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("plan   (%s, §6 heuristic):\n%s", alg, plan)

	opts := subgraph.EstimateOptions{
		Algorithm: alg,
		Backend:   *backend,
		Workers:   *workers,
		Trials:    *trials,
		Seed:      *seed,
	}
	if *relerr > 0 {
		opts.Spec = subgraph.Spec{
			Precision: subgraph.Precision{RelErr: *relerr, Confidence: *conf},
			MaxTrials: *maxTrials,
		}
	}
	est, err := subgraph.Estimate(g, q, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\ncolorful counts per trial: %v\n", est.Counts)
	fmt.Printf("estimated matches:    %.1f  (scale factor k^k/k! = %.2f)\n", est.Matches, subgraph.ScaleFactor(q.K))
	fmt.Printf("estimated subgraphs:  %.1f  (aut(Q) = %d)\n", est.Subgraphs, q.Automorphisms())
	fmt.Printf("coefficient of variation: %.4f\n", est.CV)
	if *relerr > 0 {
		fmt.Printf("precision: stopped after %d trials (target ±%.0f%% at %.0f%% confidence; observed CI half-width %.1f%% of the mean)\n",
			est.Trials, 100**relerr, 100**conf, 100*est.RelCI(*conf))
	}
	if *stats {
		s := est.Stats
		fmt.Printf("engine: %s backend, %d workers, total load %d, max load %d, messages %d, table entries %d\n",
			s.Backend, s.Workers, s.TotalLoad, s.MaxLoad, s.Messages, s.TableEntries)
	}
	if *exact {
		want := subgraph.ExactCount(g, q)
		fmt.Printf("exact matches (brute force): %d\n", want)
	}
	if *pervertex > 0 {
		colors := subgraph.RandomColoring(g, q, *seed)
		per, anchor, _, err := subgraph.CountColorfulPerVertex(g, q, colors, -1,
			subgraph.CountOptions{Algorithm: alg, Backend: *backend, Workers: *workers})
		if err != nil {
			fatal(err)
		}
		type vc struct {
			v uint32
			c uint64
		}
		tops := make([]vc, 0, len(per))
		for v, c := range per {
			if c > 0 {
				tops = append(tops, vc{uint32(v), c})
			}
		}
		sort.Slice(tops, func(i, j int) bool { return tops[i].c > tops[j].c })
		if len(tops) > *pervertex {
			tops = tops[:*pervertex]
		}
		fmt.Printf("\ntop vertices by colorful matches (query node %d anchored, one coloring):\n", anchor)
		for _, e := range tops {
			fmt.Printf("  v%-8d deg %-6d %12d\n", e.v, g.Degree(e.v), e.c)
		}
	}
}

func loadQuery(name, file string) (*subgraph.Query, error) {
	if file == "" {
		return subgraph.QueryByName(name)
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return subgraph.ReadQuery(file, f)
}

func loadGraph(path, standin string, scale, pl int, alpha float64, rmat int, seed int64) (*subgraph.Graph, error) {
	switch {
	case path != "":
		return subgraph.LoadGraph(path)
	case standin != "":
		g, ok := subgraph.Standin(standin, scale, seed)
		if !ok {
			return nil, fmt.Errorf("unknown stand-in %q", standin)
		}
		return g, nil
	case pl > 0:
		return subgraph.GeneratePowerLaw("powerlaw", pl, alpha, seed), nil
	case rmat > 0:
		return subgraph.GenerateRMAT("rmat", rmat, 16, seed), nil
	default:
		return nil, fmt.Errorf("need one of -graph, -standin, -powerlaw, -rmat")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sgcount:", err)
	os.Exit(1)
}
