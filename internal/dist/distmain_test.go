package dist_test

import (
	"os"
	"testing"

	"repro/internal/dist/disttest"
)

// TestMain makes this suite runnable under SUBGRAPH_BACKEND=dist: when
// the environment selects the dist backend, disttest.Main registers an
// in-process loopback pool before the tests run. See
// internal/dist/disttest.
func TestMain(m *testing.M) { os.Exit(disttest.Main(m)) }
