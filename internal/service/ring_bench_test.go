package service

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// BenchmarkRing is a design probe for the replica ring: is one process
// better served by one replica or by three replicas that each own a third of
// the keys? It measures, and claims nothing:
//
//   - hot/… and cold/…: closed-loop req/s of two clients, on one replica and
//     on a three-replica ring in one process whose entry each request picks
//     in turn — on keys every home has cached, and on never-seen seeds;
//   - hop: the forward hop alone, the p50 of a cache hit through a non-home
//     entry less the p50 of one through the home;
//   - cache: the hit rate of three ring-partitioned caches of capacity C,
//     of one cache of C, and of one of 3C, on one Zipf key stream.
//
// Each sub-benchmark runs in well under a second at -benchtime 1x:
//
//	go test -run '^$' -bench Ring -benchtime 1x ./internal/service/
func BenchmarkRing(b *testing.B) {
	for _, c := range []struct {
		name     string
		replicas int
		cold     bool
	}{{"hot/one", 1, false}, {"hot/ring", 3, false}, {"cold/one", 1, true}, {"cold/ring", 3, true}} {
		b.Run(c.name, func(b *testing.B) {
			reps := startRing(b, c.replicas)
			const clients, each = 2, 100
			var seeds sync.Mutex
			next := int64(1 << 40)
			b.ResetTimer()
			begin := time.Now()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for cl := 0; cl < clients; cl++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := 0; j < each; j++ {
							seed := int64(1 + (cl+j)%ringHot)
							if c.cold {
								seeds.Lock()
								seed, next = next, next+1
								seeds.Unlock()
							}
							reps[(cl+j)%len(reps)].estimate(b, seed)
						}
					}()
				}
				wg.Wait()
			}
			b.ReportMetric(float64(b.N*clients*each)/time.Since(begin).Seconds(), "req/s")
		})
	}
	b.Run("hop", func(b *testing.B) {
		reps := startRing(b, 3)
		var local, forwarded []time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for seed := int64(1); seed <= ringHot; seed++ {
				for _, rep := range reps {
					for r := 0; r < 10; r++ {
						begin := time.Now()
						if rep.estimate(b, seed) {
							forwarded = append(forwarded, time.Since(begin))
						} else {
							local = append(local, time.Since(begin))
						}
					}
				}
			}
		}
		p50 := func(d []time.Duration) float64 {
			slices.Sort(d)
			return float64(d[len(d)/2].Microseconds())
		}
		b.ReportMetric(p50(local), "local-p50-us")
		b.ReportMetric(p50(forwarded), "forwarded-p50-us")
		b.ReportMetric(p50(forwarded)-p50(local), "hop-us")
	})
	b.Run("cache", func(b *testing.B) {
		const capacity, keys, stream = 256, 20000, 100000
		ring, err := cluster.NewRing([]string{"a:1", "b:2", "c:3"}, 0)
		if err != nil {
			b.Fatal(err)
		}
		run := TrialRun{Counts: []uint64{1}, Stats: make([]core.Stats, 1)}
		var rate [3]float64 // three ring-partitioned caches of C, one of C, one of 3C
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			parts := map[string]*Cache{"a:1": NewCache(capacity, 0), "b:2": NewCache(capacity, 0), "c:3": NewCache(capacity, 0)}
			one, three := NewCache(capacity, 0), NewCache(3*capacity, 0)
			zipf := rand.NewZipf(rand.New(rand.NewSource(int64(i+1))), 1.1, 1, keys-1)
			for j := 0; j < stream; j++ {
				k := TrialKey{Graph: 1, Query: "k4:f", Seed: int64(zipf.Uint64()), Ranks: 1}
				for c, cache := range []*Cache{parts[ring.Owner(ringHash(k))], one, three} {
					if _, ok := cache.Get(k, 1); ok {
						rate[c] += 1.0 / stream / float64(b.N)
					} else {
						cache.Put(k, run)
					}
				}
			}
		}
		b.ReportMetric(rate[0], "hit-3-parts-of-C")
		b.ReportMetric(rate[1], "hit-one-C")
		b.ReportMetric(rate[2], "hit-one-3C")
	})
}

// ringHot is the number of hot colouring seeds the ring probe's requests
// draw from, each warmed at its home before the clock starts.
const ringHot = 8

// ringReplica is one member of BenchmarkRing's ring: a service behind a
// real listener, since forwards dial TCP addresses.
type ringReplica struct {
	base   string
	client *http.Client
}

// estimate posts one estimate for seed and reports whether another
// replica served it. A failure fails b; clients call it concurrently.
func (r *ringReplica) estimate(b *testing.B, seed int64) bool {
	body := fmt.Sprintf(`{"graph":"g","query":"cycle4","trials":1,"ranks":1,"seed":%d}`, seed)
	resp, err := r.client.Post(r.base+"/v1/estimate", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		b.Error(err)
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // the status is what is checked
	if resp.StatusCode != http.StatusOK {
		b.Errorf("seed %d: status %d", seed, resp.StatusCode)
	}
	return resp.Header.Get(homeHeader) != ""
}

// startRing starts n replicas over one membership (n = 1 is a plain
// replica), registers the serving workloads' 1000-vertex power-law graph
// on each and warms the hot seeds at their homes.
func startRing(b *testing.B, n int) []*ringReplica {
	b.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	reps := make([]*ringReplica, n)
	for i, ln := range lns {
		opts := Options{Workers: 2, Logger: quiet}
		if n > 1 {
			cl, err := cluster.New(cluster.Options{Self: addrs[i], Members: addrs, HealthEvery: -1, Logger: quiet})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(cl.Close)
			opts.Cluster = cl
		}
		svc := New(opts)
		if _, err := svc.AddGraph(GraphSpec{Name: "g", PowerLawN: 1000, Alpha: 1.6, Seed: 1}); err != nil {
			b.Fatal(err)
		}
		srv := &http.Server{Handler: svc.Handler()}
		go srv.Serve(ln) //nolint:errcheck // closed on cleanup
		b.Cleanup(func() {
			srv.Close()
			svc.Close()
		})
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
		b.Cleanup(client.CloseIdleConnections)
		reps[i] = &ringReplica{base: "http://" + addrs[i], client: client}
	}
	for seed := int64(1); seed <= ringHot; seed++ {
		reps[0].estimate(b, seed)
	}
	return reps
}
