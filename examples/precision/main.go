// Precision: the declarative estimation API end to end — ask for the
// answer quality you need instead of guessing a trial count, refine an
// estimate incrementally with a Session, and watch the service reuse and
// extend cached trials across precision tiers.
//
// Three layers of the same idea:
//
//  1. subgraph.Estimate with a Spec: "reach ±20% at 95% confidence" —
//     the estimator decides the trial count from the observed variance.
//  2. subgraph.Session: one trial at a time, snapshot whenever you like;
//     T calls to Next equal a batch run with Trials: T, bit for bit.
//  3. The service: a loose request, then a tighter one over the same
//     seed — the second run extends the first's cached trials instead of
//     recomputing them, and the stats show the saved compute.
package main

import (
	"context"
	"fmt"
	"log"

	subgraph "repro"
)

func main() {
	g := subgraph.GeneratePowerLaw("demo", 2000, 1.5, 1)
	q, err := subgraph.QueryByName("glet1")
	if err != nil {
		log.Fatal(err)
	}

	// 1. Declare the precision; the estimator spends what it costs.
	target := subgraph.Precision{RelErr: 0.2, Confidence: 0.95}
	est, err := subgraph.Estimate(g, q, subgraph.EstimateOptions{
		Seed: 7,
		Spec: subgraph.Spec{Precision: target, MaxTrials: 256},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adaptive: ≈%.1f matches after %d trials (CV %.3f, observed CI ±%.1f%%)\n",
		est.Matches, est.Trials, est.CV, 100*est.RelCI(0.95))

	// 2. The same thing by hand: an incremental session. Each Next runs
	// one more deterministic coloring; the snapshots narrow as it goes.
	sess, err := subgraph.NewSession(g, q, subgraph.EstimateOptions{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	// The floor of 8 trials mirrors the adaptive rule's first possible
	// stop, so this hand-rolled loop stops at the same trial the Spec run
	// did; the cap of 256 is the Spec's, and bounds a loop on Met, which
	// a zero mean never meets.
	for sess.Trials() < 256 && (sess.Trials() < 8 || !sess.Met(target)) {
		if _, err := sess.Next(context.Background()); err != nil {
			log.Fatal(err)
		}
		if t := sess.Trials(); t&(t-1) == 0 { // print at powers of two
			snap := sess.Estimate()
			fmt.Printf("  session @%3d trials: ≈%.1f matches, CI ±%.1f%%\n",
				t, snap.Matches, 100*snap.RelCI(0.95))
		}
	}
	fmt.Printf("session met ±20%% at %d trials — identical to the adaptive run: %v\n\n",
		sess.Trials(), sess.Estimate().Matches == est.Matches)

	// 3. Through the service: precision tiers share one trial cache.
	svc := subgraph.NewService(subgraph.ServiceOptions{Workers: 2})
	defer svc.Close()
	if _, err := svc.AddGraph(subgraph.GraphSpec{PowerLawN: 2000, Alpha: 1.5, Seed: 1, Name: "demo"}); err != nil {
		log.Fatal(err)
	}
	loose := subgraph.EstimateRequest{Graph: "demo", Query: "glet1", Seed: 7,
		Precision: &subgraph.PrecisionSpec{RelErr: 0.5, MaxTrials: 256}}
	lres, err := svc.Estimate(context.Background(), loose)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service, loose tier (±50%%): %d trials\n", lres.Estimate.Trials)

	tight := loose
	tight.Precision = &subgraph.PrecisionSpec{RelErr: 0.2, MaxTrials: 256}
	tres, err := svc.Estimate(context.Background(), tight)
	if err != nil {
		log.Fatal(err)
	}
	st := svc.Stats()
	fmt.Printf("service, tight tier (±20%%): %d trials — first %d reused from the loose run\n",
		tres.Estimate.Trials, lres.Estimate.Trials)
	fmt.Printf("stats: cache.extended=%d, precision.earlyStops=%d, precision.trialsSaved=%d\n",
		st.Cache.Extended, st.Precision.EarlyStops, st.Precision.TrialsSaved)
}
