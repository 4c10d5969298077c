package gen

import (
	"math/rand"

	"repro/internal/graph"
)

// StandinSpec calibrates a synthetic stand-in for one of the paper's
// Table 1 real-world graphs. SNAP/Open-Connectome downloads are not
// available offline, so each stand-in is a Chung-Lu power-law graph (or a
// grid for the road network) matched to the original's node count, edge
// factor (m/n, the paper's "Avg Deg" column) and degree-skew class; the
// paper's comparative results are driven by exactly these properties
// (§8.2). Alpha is the truncated power-law exponent: smaller = heavier
// tail = more skew.
type StandinSpec struct {
	Name       string
	Domain     string
	Nodes      int     // original node count; divided by the scale factor
	EdgeFactor float64 // original m/n (the paper's "Avg Deg" column)
	MaxDeg     int     // original maximum degree (Table 1)
	Alpha      float64 // power-law body exponent (ignored for grids)
	Grid       bool    // road network: near-uniform tiny degrees
}

// StandinSpecs mirrors the paper's Table 1 rows.
func StandinSpecs() []StandinSpec {
	return []StandinSpec{
		{Name: "brightkite", Domain: "Geo loc.", Nodes: 58000, EdgeFactor: 3.7, MaxDeg: 1135, Alpha: 1.60},
		{Name: "condMat", Domain: "Collab.", Nodes: 23000, EdgeFactor: 4.0, MaxDeg: 281, Alpha: 1.90},
		{Name: "astroph", Domain: "Collab.", Nodes: 18000, EdgeFactor: 11.0, MaxDeg: 504, Alpha: 1.85},
		{Name: "enron", Domain: "Commn.", Nodes: 36000, EdgeFactor: 5.0, MaxDeg: 1385, Alpha: 1.45},
		{Name: "hepph", Domain: "Citation", Nodes: 34000, EdgeFactor: 12.4, MaxDeg: 848, Alpha: 1.75},
		{Name: "slashdot", Domain: "Soc. net.", Nodes: 82000, EdgeFactor: 11.0, MaxDeg: 2554, Alpha: 1.50},
		{Name: "epinions", Domain: "Soc. net.", Nodes: 131000, EdgeFactor: 6.4, MaxDeg: 3558, Alpha: 1.35},
		{Name: "orkut", Domain: "Soc. net.", Nodes: 524000, EdgeFactor: 2.5, MaxDeg: 1634, Alpha: 1.65},
		{Name: "roadNetCA", Domain: "Road net.", Nodes: 2000000, EdgeFactor: 1.35, MaxDeg: 14, Grid: true},
		{Name: "brain", Domain: "Biology", Nodes: 400000, EdgeFactor: 2.75, MaxDeg: 286, Alpha: 1.80},
	}
}

// Build generates the stand-in at 1/scale of the original's node count
// (scale ≥ 1). The edge factor and skew class are preserved.
func (s StandinSpec) Build(scale int, seed int64) *graph.Graph {
	if scale < 1 {
		scale = 1
	}
	n := s.Nodes / scale
	if n < 64 {
		n = 64
	}
	rng := rand.New(rand.NewSource(seed ^ int64(len(s.Name))<<32 ^ int64(n)))
	if s.Grid {
		// Square-ish lattice; link probabilities tuned so m/n ≈ EdgeFactor.
		side := intSqrt(n)
		p := s.EdgeFactor / 2 // two candidate links per node in a lattice
		return RoadGrid(s.Name, side, side, p, p, rng)
	}
	w := ScaleWeights(PowerLawWeights(n, s.Alpha), 2*s.EdgeFactor)
	// Preserve the original's degree skew: the hub expected degree keeps the
	// original max-degree-to-node-count ratio.
	hubMax := float64(s.MaxDeg) / float64(s.Nodes) * float64(n)
	w = AddHubs(w, hubMax, 1+n/2000)
	return ChungLu(s.Name, w, rng)
}

// StandinByName builds a single named stand-in.
func StandinByName(name string, scale int, seed int64) (*graph.Graph, bool) {
	for _, s := range StandinSpecs() {
		if s.Name == name {
			return s.Build(scale, seed), true
		}
	}
	return nil, false
}

func intSqrt(n int) int {
	x := 1
	for (x+1)*(x+1) <= n {
		x++
	}
	return x
}
