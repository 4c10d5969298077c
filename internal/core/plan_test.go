package core

import (
	"testing"

	"repro/internal/query"
)

// PickPlan ranks a query's decomposition trees by the load — Stats.TotalLoad
// — of a calibration run, so a change to what a join counts as an operation
// can change which plan every estimate runs on. When a root cycle's join
// went from pairs of entries examined to entries streamed, these ten picks
// did not move; they are the parent commit's encodings.
func TestPickPlanCatalogGolden(t *testing.T) {
	for _, c := range [][2]string{
		{"dros", "S[5@L[5@L[5,6;;b,5],0@C[0,1,2,3,4;;b,0];;b,5];;b]"},
		{"ecoli1", "S[4@L[4@L[4,0@L[0,2@L[2,6;;b,2];0@C[0,1,2,3;;b,0,2];b,0];0@C[0,4,5;;b,0,4];b,4],7;;b,4];;b]"},
		{"ecoli2", "S[2@L[2@L[2,0@L[0,5@L[5,8;;b,5];0@C[0,4,5,6;;b,0,5];b,0];0@C[0,1,2,3;;b,0,2];b,2],7;;b,2];;b]"},
		{"brain1", "C[0,1,2,3,4,5;0@C[0,1,7,6;;b,0,1];b]"},
		{"brain2", "C[0,1,2,3,4,5,6;0@C[0,1,8,7;;b,0,1];b]"},
		{"brain3", "C[0,1,2,3,4,5,6,7;0@C[0,1,9,8;;b,0,1];b]"},
		{"glet1", "C[0,1,2,3;0@C[0,1,4;;b,0,1];b]"},
		{"glet2", "C[0,1,2,3,4;;b]"},
		{"wiki", "S[5@L[5@L[5,6;;b,5],2@L[2,0@L[0,3;;b,0];0@C[0,1@L[1,4;;b,1],2;;b,0,2];b,2];;b,5];;b]"},
		{"youtube", "S[0@L[0@L[0,2@L[2,5;;b,2];0@C[0,1,2,3;;b,0,2];b,0],4;;b,0];;b]"},
	} {
		plan, err := PickPlan(query.MustByName(c[0]))
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.Encode(); got != c[1] {
			t.Errorf("%s: PickPlan picks %s; at the parent commit %s", c[0], got, c[1])
		}
	}
	if n := len(query.Catalog()); n != 10 {
		t.Errorf("the catalog has %d queries, the golden ten", n)
	}
}
