// Command sgplan inspects query decomposition trees (paper §4.1, §6): it
// prints every decomposition tree of a query with its §6 structural score,
// and marks the plan every solve runs: PickPlan's pick, the tree whose
// calibration run costs least.
//
// Examples:
//
//	sgplan satellite
//	sgplan -all
//	sgplan brain1 ecoli2 cycle7
package main

import (
	"flag"
	"fmt"
	"os"

	subgraph "repro"
)

func main() {
	all := flag.Bool("all", false, "show the whole Figure 8 catalog")
	flag.Parse()

	names := flag.Args()
	if *all {
		for _, q := range subgraph.Queries() {
			names = append(names, q.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "usage: sgplan [-all] <query name>...")
		os.Exit(2)
	}
	for _, name := range names {
		q, err := subgraph.QueryByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sgplan:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", q)
		trees, err := subgraph.EnumeratePlans(q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sgplan:", err)
			os.Exit(1)
		}
		best, err := subgraph.Plan(q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sgplan:", err)
			os.Exit(1)
		}
		fmt.Printf("%d decomposition tree(s):\n", len(trees))
		for i, tr := range trees {
			score := tr.Score()
			mark := " "
			if tr.Encode() == best.Encode() {
				mark = "*" // PickPlan's calibrated pick
			}
			fmt.Printf("%s plan %d  score(work max %d total %d, longest cycle %d, boundary %d, annotations %d)\n",
				mark, i+1, score.MaxCycleWork, score.TotalCycleWork, score.LongestCycle, score.BoundarySum, score.Annotations)
			fmt.Print(tr)
		}
		fmt.Println()
	}
}
