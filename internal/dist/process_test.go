package dist_test

import (
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/query"
)

// All three backends must agree not just on the count but on the exact
// superstep sequence length: the solver's step schedule is a function of
// the plan alone, never of the execution substrate.
func TestThreeBackendStepsDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := gen.PowerLawGraph("pl", 350, 1.5, rng)
	c := loopback(t, 2)

	for _, q := range []*query.Graph{query.MustByName("glet1"), query.MustByName("brain1"), query.Cycle(5)} {
		colors := randColors(g.N(), q.K, rng)
		for _, alg := range []core.Algorithm{core.PS, core.DB} {
			simCount, simStats, err := core.CountColorful(g, q, colors, core.Options{Algorithm: alg, Backend: "sim", Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			parCount, parStats, err := core.CountColorful(g, q, colors, core.Options{Algorithm: alg, Backend: "parallel", Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			distCount, distStats := countVia(t, c, g, q, colors, alg)
			if simCount != parCount || simCount != distCount {
				t.Errorf("%s %s: counts diverge sim=%d parallel=%d dist=%d", q.Name, alg, simCount, parCount, distCount)
			}
			if simStats.Supersteps != parStats.Supersteps || simStats.Supersteps != distStats.Supersteps {
				t.Errorf("%s %s: supersteps diverge sim=%d parallel=%d dist=%d",
					q.Name, alg, simStats.Supersteps, parStats.Supersteps, distStats.Supersteps)
			}
		}
	}
}

// TestTwoProcessWorkers is the real thing: build cmd/sgworker, spawn two
// worker processes on loopback TCP, connect a pool over actual
// sockets, and demand bit-identical results. Everything else in this
// package runs over net.Pipe; this is the only test whose failure
// implicates process startup, TCP framing, or -addr-file handshaking.
func TestTwoProcessWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process spawn in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "sgworker")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/sgworker")
	build.Env = append(os.Environ(), "GOFLAGS=") // drop -race etc.: the worker binary doesn't need it
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building sgworker: %v\n%s", err, out)
	}

	var addrs []string
	for i := 0; i < 2; i++ {
		addrFile := filepath.Join(dir, "addr"+string(rune('0'+i)))
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-log-level", "warn")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting sgworker %d: %v", i, err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		addrs = append(addrs, waitForAddr(t, addrFile))
	}

	c, err := dist.Connect(addrs, dist.Options{})
	if err != nil {
		t.Fatalf("connecting to workers: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	rng := rand.New(rand.NewSource(71))
	g := gen.PowerLawGraph("pl", 300, 1.6, rng)
	for _, q := range []*query.Graph{query.MustByName("glet1"), query.Cycle(5)} {
		colors := randColors(g.N(), q.K, rng)
		want, _, err := core.CountColorful(g, q, colors, core.Options{Algorithm: core.PS, Backend: "sim", Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := countVia(t, c, g, q, colors, core.PS)
		if got != want {
			t.Errorf("%s over TCP: dist %d, sim %d", q.Name, got, want)
		}
	}
}

func waitForAddr(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil {
			if addr := strings.TrimSpace(string(b)); addr != "" {
				return addr
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("worker never wrote %s", path)
	return ""
}
