package service

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/durable"
)

// TestBridgeOptionalSections: the /v1/stats sections only some deployments
// have — a durable log, a replica ring, dist worker nodes — reach /metrics
// under their family names, labels and values: every field of each is set
// to a number of its own, bridged, rendered, and read back from the text.
func TestBridgeOptionalSections(t *testing.T) {
	st := Stats{
		Durable: &durable.Stats{
			Appends: 101, Lag: 102, ReplayedRuns: 103, ReplayedJobs: 104, TruncatedBytes: 105,
			Compactions: 106, Fsyncs: 107, WriteErrors: 108, WalBytes: 109, SnapshotBytes: 110,
		},
		Cluster: &ClusterStats{
			Stats: cluster.Stats{
				Self:    "a:1",
				Members: []string{"a:1", "b:2", "c:3"},
				Peers: []cluster.PeerStats{
					{Addr: "b:2", Up: true, Trips: 211, Forwards: 212, Failures: 213},
					{Addr: "c:3", BreakerOpen: true, Trips: 221, Forwards: 222, Failures: 223},
				},
			},
			Forwards: 201, ForwardErrors: 202, LocalFallbacks: 203, ForwardedServed: 204,
			HandoffExported: 205, HandoffImported: 206, HandoffActive: true,
		},
		Engine: EngineStats{Dist: []DistNodeStats{
			{Rank: 0, Alive: true, BytesSent: 301, BytesRecv: 302, FramesSent: 303, FramesRecv: 304, Exchanges: 305, Load: 306, Jobs: 307},
			{Rank: 1, BytesSent: 311, BytesRecv: 312, FramesSent: 313, FramesRecv: 314, Exchanges: 315, Load: 316, Jobs: 317},
		}},
	}
	m := newMetricsRecorder()
	m.bridge(st)
	var text bytes.Buffer
	if err := m.reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for sc := bufio.NewScanner(&text); sc.Scan(); {
		series, value, ok := strings.Cut(sc.Text(), " ")
		if v, err := strconv.ParseFloat(value, 64); ok && err == nil && !strings.HasPrefix(series, "#") {
			got[series] = v
		}
	}
	for series, want := range map[string]float64{
		"subgraph_durable_appends_total":         101,
		"subgraph_durable_lag":                   102,
		"subgraph_durable_replayed_runs_total":   103,
		"subgraph_durable_replayed_jobs_total":   104,
		"subgraph_durable_truncated_bytes_total": 105,
		"subgraph_durable_compactions_total":     106,
		"subgraph_durable_fsyncs_total":          107,
		"subgraph_durable_write_errors_total":    108,
		"subgraph_durable_wal_bytes":             109,
		"subgraph_durable_snapshot_bytes":        110,

		"subgraph_cluster_forwards_total":         201,
		"subgraph_cluster_forward_errors_total":   202,
		"subgraph_cluster_local_fallbacks_total":  203,
		"subgraph_cluster_forwarded_served_total": 204,
		"subgraph_cluster_handoff_exported_total": 205,
		"subgraph_cluster_handoff_imported_total": 206,
		"subgraph_cluster_handoff_active":         1,
		"subgraph_cluster_members":                3,

		`subgraph_cluster_peer_up{peer="b:2"}`:                  1,
		`subgraph_cluster_peer_breaker_open{peer="b:2"}`:        0,
		`subgraph_cluster_peer_breaker_trips_total{peer="b:2"}`: 211,
		`subgraph_cluster_peer_forwards_total{peer="b:2"}`:      212,
		`subgraph_cluster_peer_failures_total{peer="b:2"}`:      213,
		`subgraph_cluster_peer_up{peer="c:3"}`:                  0,
		`subgraph_cluster_peer_breaker_open{peer="c:3"}`:        1,
		`subgraph_cluster_peer_breaker_trips_total{peer="c:3"}`: 221,
		`subgraph_cluster_peer_forwards_total{peer="c:3"}`:      222,
		`subgraph_cluster_peer_failures_total{peer="c:3"}`:      223,

		`subgraph_dist_node_up{node="0"}`:                1,
		`subgraph_dist_node_bytes_sent_total{node="0"}`:  301,
		`subgraph_dist_node_bytes_recv_total{node="0"}`:  302,
		`subgraph_dist_node_frames_sent_total{node="0"}`: 303,
		`subgraph_dist_node_frames_recv_total{node="0"}`: 304,
		`subgraph_dist_node_exchanges_total{node="0"}`:   305,
		`subgraph_dist_node_load_total{node="0"}`:        306,
		`subgraph_dist_node_jobs_total{node="0"}`:        307,
		`subgraph_dist_node_up{node="1"}`:                0,
		`subgraph_dist_node_bytes_sent_total{node="1"}`:  311,
		`subgraph_dist_node_bytes_recv_total{node="1"}`:  312,
		`subgraph_dist_node_frames_sent_total{node="1"}`: 313,
		`subgraph_dist_node_frames_recv_total{node="1"}`: 314,
		`subgraph_dist_node_exchanges_total{node="1"}`:   315,
		`subgraph_dist_node_load_total{node="1"}`:        316,
		`subgraph_dist_node_jobs_total{node="1"}`:        317,
	} {
		if v, ok := got[series]; !ok || v != want {
			t.Errorf("%s = %v (present: %v), want %v", series, v, ok, want)
		}
	}

	// A service with none of the three exposes none of their families.
	bare := newMetricsRecorder()
	bare.bridge(Stats{})
	text.Reset()
	if err := bare.reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"subgraph_durable_", "subgraph_cluster_", "subgraph_dist_"} {
		if strings.Contains(text.String(), prefix) {
			t.Errorf("a Stats without the section still exposes %s* families", prefix)
		}
	}
}
