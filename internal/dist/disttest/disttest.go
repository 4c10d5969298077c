// Package disttest backs SUBGRAPH_BACKEND=dist test runs. Any package
// whose tests resolve the execution backend from the environment (even
// indirectly, through plan calibration) gets a TestMain of the form
//
//	func TestMain(m *testing.M) { os.Exit(disttest.Main(m)) }
//
// which, when the environment selects the dist backend, registers an
// in-process loopback pool (two worker "processes" over net.Pipe,
// full wire protocol) before the suite runs, and tears it down after.
// Under any other backend Main is exactly m.Run().
package disttest

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/dist"
	"repro/internal/engine"
)

// Main wraps m.Run with loopback-pool setup when SUBGRAPH_BACKEND
// selects the dist backend. It returns the exit code rather than
// calling os.Exit so callers keep the standard TestMain shape.
func Main(m *testing.M) int {
	if os.Getenv(engine.BackendEnv) != engine.DistName {
		return m.Run()
	}
	c, err := dist.Loopback(2, dist.WorkerOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "disttest: enabling dist loopback pool:", err)
		return 1
	}
	defer c.Close()
	dist.Enable(c)
	return m.Run()
}
