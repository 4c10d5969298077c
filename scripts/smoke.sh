#!/usr/bin/env bash
# Smoke-test the sgserve HTTP API end to end: start a server, submit an
# async job, poll it to completion, and assert the estimate matches the
# golden value (enron stand-in at scale 512 seed 1, glet1, 3 trials,
# seed 7 — deterministic by construction). Also asserts the async result
# body is byte-identical to the synchronous /v1/estimate body, that a
# precision-targeted job stops at its golden trial count while reusing the
# 3-trial job's cached trials (the counts prefix must replay bit-identical),
# and that DELETE cancels a long-running job. A durability pass
# kill -9s a -data-dir server mid-traffic and requires the restarted
# process to serve the same golden bytes purely from WAL replay — zero
# fresh solver runs. A final cluster pass starts three replicas with
# consistent-hash routing, asserts the goldens are bit-identical through
# every entry replica (with real forwarding happening), then kill -9s one
# replica and requires the survivors to keep answering the goldens
# without hanging. Requires curl and jq.
set -euo pipefail

GOLDEN_MATCHES="120868.05555555558"
GOLDEN_COUNTS="[4418,8064,1442]"
# Adaptive golden: same graph/query/seed with a ±50% @ 90% target stops at
# 5 trials (the interval's quantile is Student's t: 2.35 at 4 trials, too
# wide there, 2.13 at 5); its first 3 counts are exactly the fixed-trial
# goldens above.
GOLDEN_PREC_TRIALS="5"
GOLDEN_PREC_MATCHES="137802.08333333337"

cd "$(dirname "$0")/.."
go build -o /tmp/sgserve ./cmd/sgserve
# Bind port 0 and read the actual address back: a hardcoded port collides
# with concurrent jobs on shared CI runners.
ADDR_FILE=$(mktemp -u)
DIST_ADDR_FILE=$(mktemp -u)
W1_ADDR_FILE=$(mktemp -u)
W2_ADDR_FILE=$(mktemp -u)
DUR_ADDR_FILE=$(mktemp -u)
DATA_DIR=$(mktemp -d)
SERVER_PID="" DIST_PID="" W1_PID="" W2_PID="" DUR_PID=""
C1_PID="" C2_PID="" C3_PID=""
cleanup() {
  for p in "$SERVER_PID" "$DIST_PID" "$W1_PID" "$W2_PID" "$DUR_PID" \
           "$C1_PID" "$C2_PID" "$C3_PID"; do
    [ -n "$p" ] && kill "$p" 2>/dev/null || true
  done
  rm -f "$ADDR_FILE" "$DIST_ADDR_FILE" "$W1_ADDR_FILE" "$W2_ADDR_FILE" "$DUR_ADDR_FILE"
  rm -rf "$DATA_DIR"
}
trap cleanup EXIT

/tmp/sgserve -addr 127.0.0.1:0 -addr-file "$ADDR_FILE" -preload enron -scale 512 -seed 1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [ -s "$ADDR_FILE" ] && break
  sleep 0.1
done
BASE="http://$(cat "$ADDR_FILE")"

for _ in $(seq 1 100); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "$BASE/healthz" >/dev/null

req='{"graph":"enron","query":"glet1","trials":3,"seed":7}'

# Submit → poll (long-poll) → fetch result.
job=$(curl -fsS "$BASE/v1/jobs" -d "$req")
id=$(jq -r .id <<<"$job")
echo "submitted job $id: $(jq -r .state <<<"$job")"

state=""
for _ in $(seq 1 60); do
  state=$(curl -fsS "$BASE/v1/jobs/$id?wait=2s" | jq -r .state)
  [ "$state" = queued ] || [ "$state" = running ] || break
done
if [ "$state" != done ]; then
  echo "FAIL: job $id ended in state $state" >&2
  exit 1
fi

async_body=$(curl -fsS "$BASE/v1/jobs/$id/result")
matches=$(jq -r .Matches <<<"$async_body")
counts=$(jq -c .Counts <<<"$async_body")
if [ "$matches" != "$GOLDEN_MATCHES" ] || [ "$counts" != "$GOLDEN_COUNTS" ]; then
  echo "FAIL: estimate drifted from golden:" >&2
  echo "  matches $matches (want $GOLDEN_MATCHES)" >&2
  echo "  counts  $counts (want $GOLDEN_COUNTS)" >&2
  exit 1
fi
echo "job $id done: matches=$matches (golden)"

# Sync path must serve the same bytes for the same request.
sync_body=$(curl -fsS "$BASE/v1/estimate" -d "$req")
if [ "$async_body" != "$sync_body" ]; then
  echo "FAIL: async and sync bodies differ:" >&2
  echo "  async: $async_body" >&2
  echo "  sync:  $sync_body" >&2
  exit 1
fi
echo "sync /v1/estimate body identical to async result"

# Precision-targeted job: declares ±50% at 90% confidence instead of a
# trial count. Deterministic stop at the golden trial count, and the first
# three trials must be the cached ones from the fixed-trial job above
# (trial-granular cache extension, not a recompute).
preq='{"graph":"enron","query":"glet1","seed":7,"precision":{"relErr":0.5,"confidence":0.9,"maxTrials":64}}'
pbody=$(curl -fsS "$BASE/v1/estimate" -d "$preq")
ptrials=$(jq -r .Trials <<<"$pbody")
pmatches=$(jq -r .Matches <<<"$pbody")
pprefix=$(jq -c '.Counts[0:3]' <<<"$pbody")
if [ "$ptrials" != "$GOLDEN_PREC_TRIALS" ] || [ "$pmatches" != "$GOLDEN_PREC_MATCHES" ]; then
  echo "FAIL: precision estimate drifted from golden:" >&2
  echo "  trials  $ptrials (want $GOLDEN_PREC_TRIALS)" >&2
  echo "  matches $pmatches (want $GOLDEN_PREC_MATCHES)" >&2
  exit 1
fi
if [ "$pprefix" != "$GOLDEN_COUNTS" ]; then
  echo "FAIL: precision run's count prefix $pprefix != cached trials $GOLDEN_COUNTS" >&2
  exit 1
fi
echo "precision job stopped at $ptrials trials (golden), reusing the cached prefix"

stats=$(curl -fsS "$BASE/v1/stats")
extended=$(jq .cache.extended <<<"$stats")
saved=$(jq .precision.trialsSaved <<<"$stats")
if [ "$extended" -lt 1 ] || [ "$saved" -lt 1 ]; then
  echo "FAIL: precision stats not recorded: cache.extended=$extended precision.trialsSaved=$saved" >&2
  exit 1
fi
echo "stats: cache.extended=$extended, precision.trialsSaved=$saved"

# Cancel a long job mid-run: DELETE must leave it canceled, not done.
long=$(curl -fsS "$BASE/v1/jobs" -d '{"graph":"enron","query":"brain3","trials":500,"seed":1}' | jq -r .id)
sleep 0.3
canceled=$(curl -fsS -X DELETE "$BASE/v1/jobs/$long" | jq -r .state)
if [ "$canceled" != canceled ]; then
  echo "FAIL: DELETE left job $long in state $canceled" >&2
  exit 1
fi
echo "job $long canceled mid-run"

submitted=$(curl -fsS "$BASE/v1/stats" | jq .jobs.submitted)
echo "stats: $submitted jobs submitted"

# The trace endpoint replays the first job's phase timeline: the solver
# must have recorded supersteps, and on a serial job the per-phase totals
# are disjoint slices of the wall clock, so they sum to within it.
trace=$(curl -fsS "$BASE/v1/jobs/$id/trace")
trace_id=$(jq -r .id <<<"$trace")
span_count=$(jq '.spans | length' <<<"$trace")
path_spans=$(jq '.phases.pathJoin.count // 0' <<<"$trace")
within_wall=$(jq '(([.phases[].totalMs] | add) <= .wallMs + 1)' <<<"$trace")
if [ "$trace_id" != "$id" ] || [ "$span_count" -lt 1 ] || [ "$path_spans" -lt 1 ] || [ "$within_wall" != true ]; then
  echo "FAIL: job trace malformed: id=$trace_id spans=$span_count pathJoin=$path_spans withinWall=$within_wall" >&2
  echo "$trace" >&2
  exit 1
fi
echo "trace: $span_count spans, $path_spans pathJoin supersteps, phases within wall time"

# /metrics must be parseable Prometheus text carrying the request and
# request-latency families. The awk lint rejects any non-comment line
# that is not `name{labels} value` with a numeric value.
metrics=$(curl -fsS "$BASE/metrics")
# /metrics is /v1/stats walked: neither request submits a job or hits the
# cache, so the two must report the same counts exactly.
stats=$(curl -fsS "$BASE/v1/stats")
for pair in subgraph_jobs_submitted_total=.jobs.submitted subgraph_cache_hits_total=.cache.hits; do
  family=${pair%%=*} field=${pair#*=}
  scraped=$(awk -v f="$family" '$1 == f { print $2 }' <<<"$metrics")
  served=$(jq "$field" <<<"$stats")
  if [ -z "$scraped" ] || [ "$scraped" != "$served" ]; then
    echo "FAIL: /metrics $family = '$scraped' but /v1/stats $field = $served" >&2
    exit 1
  fi
done
echo "metrics: jobs submitted and cache hits agree with /v1/stats"
if ! grep -q '^subgraph_requests_total{' <<<"$metrics"; then
  echo "FAIL: /metrics missing subgraph_requests_total" >&2
  exit 1
fi
if ! grep -q '^subgraph_request_seconds_bucket{' <<<"$metrics"; then
  echo "FAIL: /metrics missing subgraph_request_seconds histogram" >&2
  exit 1
fi
bad=$(awk '!/^#/ && !/^$/ && $NF !~ /^-?[0-9.eE+Inf-]+$/ { print; exit }' <<<"$metrics")
if [ -n "$bad" ]; then
  echo "FAIL: unparseable /metrics line: $bad" >&2
  exit 1
fi
families=$(grep -c '^# TYPE ' <<<"$metrics")
echo "metrics: $families families, exposition parseable"

# ---- dist backend pass: the same goldens through two real worker ----
# ---- processes over TCP.                                         ----
# The estimate must be byte-for-byte the numbers the sim backend served
# above: the dist backend changes where supersteps execute, never what
# they compute.
go build -o /tmp/sgworker ./cmd/sgworker
/tmp/sgworker -addr 127.0.0.1:0 -addr-file "$W1_ADDR_FILE" -log-level warn &
W1_PID=$!
/tmp/sgworker -addr 127.0.0.1:0 -addr-file "$W2_ADDR_FILE" -log-level warn &
W2_PID=$!
for f in "$W1_ADDR_FILE" "$W2_ADDR_FILE"; do
  for _ in $(seq 1 100); do [ -s "$f" ] && break; sleep 0.1; done
  [ -s "$f" ] || { echo "FAIL: sgworker never wrote $f" >&2; exit 1; }
done
WORKERS="$(cat "$W1_ADDR_FILE"),$(cat "$W2_ADDR_FILE")"
/tmp/sgserve -addr 127.0.0.1:0 -addr-file "$DIST_ADDR_FILE" -backend dist \
  -dist-workers "$WORKERS" -preload enron -scale 512 -seed 1 &
DIST_PID=$!
for _ in $(seq 1 100); do [ -s "$DIST_ADDR_FILE" ] && break; sleep 0.1; done
DBASE="http://$(cat "$DIST_ADDR_FILE")"
for _ in $(seq 1 100); do
  curl -fsS "$DBASE/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
echo "dist: sgserve up against workers $WORKERS"

dist_body=$(curl -fsS "$DBASE/v1/estimate" -d "$req")
dist_matches=$(jq -r .Matches <<<"$dist_body")
dist_counts=$(jq -c .Counts <<<"$dist_body")
if [ "$dist_matches" != "$GOLDEN_MATCHES" ] || [ "$dist_counts" != "$GOLDEN_COUNTS" ]; then
  echo "FAIL: dist estimate drifted from golden:" >&2
  echo "  matches $dist_matches (want $GOLDEN_MATCHES)" >&2
  echo "  counts  $dist_counts (want $GOLDEN_COUNTS)" >&2
  exit 1
fi
echo "dist: matches=$dist_matches (golden, bit-identical to sim)"

# Per-node transport counters must show both workers alive and actually
# exchanging supersteps — not one node doing all the work.
dist_stats=$(curl -fsS "$DBASE/v1/stats")
node_count=$(jq '.engine.dist | length' <<<"$dist_stats")
all_alive=$(jq '[.engine.dist[].alive] | all' <<<"$dist_stats")
min_exchanges=$(jq '[.engine.dist[].exchanges] | min' <<<"$dist_stats")
if [ "$node_count" != 2 ] || [ "$all_alive" != true ] || [ "$min_exchanges" -lt 1 ]; then
  echo "FAIL: dist node stats wrong: nodes=$node_count alive=$all_alive minExchanges=$min_exchanges" >&2
  jq .engine.dist <<<"$dist_stats" >&2
  exit 1
fi
echo "dist: $node_count nodes alive, every node completed >= $min_exchanges exchanges"

dist_metrics=$(curl -fsS "$DBASE/metrics")
if ! grep -q '^subgraph_dist_node_up{node="1"} 1$' <<<"$dist_metrics"; then
  echo "FAIL: /metrics missing subgraph_dist_node_up for node 1" >&2
  exit 1
fi
echo "dist: per-node /metrics families present"

# ---- durability pass: kill -9 mid-traffic, restart over the same ----
# ---- data dir, serve the goldens from pure WAL replay.           ----
start_durable() {
  rm -f "$DUR_ADDR_FILE"
  /tmp/sgserve -addr 127.0.0.1:0 -addr-file "$DUR_ADDR_FILE" \
    -preload enron -scale 512 -seed 1 \
    -data-dir "$DATA_DIR" -fsync always &
  DUR_PID=$!
  for _ in $(seq 1 100); do [ -s "$DUR_ADDR_FILE" ] && break; sleep 0.1; done
  [ -s "$DUR_ADDR_FILE" ] || { echo "FAIL: durable sgserve never wrote its address" >&2; exit 1; }
  DURBASE="http://$(cat "$DUR_ADDR_FILE")"
  for _ in $(seq 1 100); do
    curl -fsS "$DURBASE/healthz" >/dev/null 2>&1 && break
    sleep 0.1
  done
}

start_durable
echo "durable: sgserve up over $DATA_DIR (fsync=always)"

# Populate the log through the async job path (so a terminal job record
# lands too) plus the precision request that extends the cached trials.
djob=$(curl -fsS "$DURBASE/v1/jobs" -d "$req" | jq -r .id)
dstate=""
for _ in $(seq 1 60); do
  dstate=$(curl -fsS "$DURBASE/v1/jobs/$djob?wait=2s" | jq -r .state)
  [ "$dstate" = queued ] || [ "$dstate" = running ] || break
done
[ "$dstate" = done ] || { echo "FAIL: durable job $djob ended $dstate" >&2; exit 1; }
dur_job_body=$(curl -fsS "$DURBASE/v1/jobs/$djob/result")
dur_prec_body=$(curl -fsS "$DURBASE/v1/estimate" -d "$preq")

# Mid-traffic casualty: a long job still running when the kill lands. It
# never reaches a terminal state, so it must NOT be resurrected later.
dlong=$(curl -fsS "$DURBASE/v1/jobs" -d '{"graph":"enron","query":"brain3","trials":500,"seed":1}' | jq -r .id)

# Wait until the durable log has drained (lag 0 under fsync=always means
# every append above is on disk), then kill -9 — no graceful shutdown.
for _ in $(seq 1 100); do
  lag=$(curl -fsS "$DURBASE/v1/stats" | jq .durable.lag)
  [ "$lag" = 0 ] && break
  sleep 0.1
done
[ "$lag" = 0 ] || { echo "FAIL: durable lag never drained (lag=$lag)" >&2; exit 1; }
kill -9 "$DUR_PID"
wait "$DUR_PID" 2>/dev/null || true
DUR_PID=""
echo "durable: killed -9 mid-traffic (long job $dlong still running)"

start_durable
replayed=$(curl -fsS "$DURBASE/v1/stats" | jq .durable.replayedRuns)
if [ "$replayed" -lt 1 ]; then
  echo "FAIL: restarted server replayed no runs (replayedRuns=$replayed)" >&2
  exit 1
fi
echo "durable: restarted, replayed $replayed runs"

# The mid-flight long job never reached a terminal state, so it must be
# gone. Checked before any new traffic: fresh submissions (every
# /v1/estimate runs through the job path) may legitimately reuse ids
# that were live-but-unfinished at the kill.
if curl -fsS "$DURBASE/v1/jobs/$dlong" >/dev/null 2>&1; then
  echo "FAIL: mid-flight job $dlong resurrected after kill -9" >&2
  exit 1
fi

# The same requests must come back bit-identical to the pre-kill bodies —
# and therefore to the goldens asserted earlier.
dur_sync2=$(curl -fsS "$DURBASE/v1/estimate" -d "$req")
dur_prec2=$(curl -fsS "$DURBASE/v1/estimate" -d "$preq")
if [ "$(jq -r .Matches <<<"$dur_sync2")" != "$GOLDEN_MATCHES" ] ||
   [ "$(jq -c .Counts <<<"$dur_sync2")" != "$GOLDEN_COUNTS" ]; then
  echo "FAIL: replayed estimate drifted from golden: $dur_sync2" >&2
  exit 1
fi
if [ "$(jq -r .Trials <<<"$dur_prec2")" != "$GOLDEN_PREC_TRIALS" ] ||
   [ "$(jq -r .Matches <<<"$dur_prec2")" != "$GOLDEN_PREC_MATCHES" ]; then
  echo "FAIL: replayed precision estimate drifted from golden: $dur_prec2" >&2
  exit 1
fi
if [ "$(jq -c 'del(.Stats)' <<<"$dur_prec2")" != "$(jq -c 'del(.Stats)' <<<"$dur_prec_body")" ]; then
  echo "FAIL: replayed precision body differs from pre-kill body" >&2
  exit 1
fi

# Terminal job survives by id with the same result bytes; the mid-flight
# long job died with the process and must be gone.
djob2=$(curl -fsS "$DURBASE/v1/jobs/$djob")
if [ "$(jq -r .state <<<"$djob2")" != done ]; then
  echo "FAIL: done job $djob lost across restart: $djob2" >&2
  exit 1
fi
dur_job_body2=$(curl -fsS "$DURBASE/v1/jobs/$djob/result")
if [ "$dur_job_body2" != "$dur_job_body" ]; then
  echo "FAIL: replayed job result differs from pre-kill bytes" >&2
  echo "  before: $dur_job_body" >&2
  echo "  after:  $dur_job_body2" >&2
  exit 1
fi
# The clincher: everything above was served without one fresh solver run.
dur_stats=$(curl -fsS "$DURBASE/v1/stats")
estimates=$(jq .estimates <<<"$dur_stats")
if [ "$estimates" != 0 ]; then
  echo "FAIL: restarted server recomputed $estimates estimates; replay must compute none" >&2
  exit 1
fi
echo "durable: goldens + job result bit-identical after kill -9, engine ran 0 fresh estimates"

# ---- cluster pass: three replicas, consistent-hash routing, one ----
# ---- killed mid-traffic.                                        ----
# Cluster membership must be known before any replica binds (the ring is
# a pure function of the member list), so -addr :0 is out: pick random
# high ports and retry the whole formation if one collides.
start_cluster() {
  C1_PORT=$((20000 + RANDOM % 20000))
  C2_PORT=$((20000 + RANDOM % 20000))
  C3_PORT=$((20000 + RANDOM % 20000))
  if [ "$C1_PORT" = "$C2_PORT" ] || [ "$C1_PORT" = "$C3_PORT" ] || [ "$C2_PORT" = "$C3_PORT" ]; then
    return 1
  fi
  MEMBERS="127.0.0.1:$C1_PORT,127.0.0.1:$C2_PORT,127.0.0.1:$C3_PORT"
  local i=1
  for port in "$C1_PORT" "$C2_PORT" "$C3_PORT"; do
    /tmp/sgserve -addr "127.0.0.1:$port" -self "127.0.0.1:$port" -peers "$MEMBERS" \
      -preload enron -scale 512 -seed 1 -log-level warn &
    eval "C${i}_PID=$!"
    i=$((i + 1))
  done
  for port in "$C1_PORT" "$C2_PORT" "$C3_PORT"; do
    local ok=""
    for _ in $(seq 1 100); do
      curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1 && { ok=1; break; }
      sleep 0.1
    done
    if [ -z "$ok" ]; then
      for p in "$C1_PID" "$C2_PID" "$C3_PID"; do kill "$p" 2>/dev/null || true; done
      C1_PID="" C2_PID="" C3_PID=""
      return 1
    fi
  done
}

formed=""
for _ in 1 2 3 4 5; do
  start_cluster && { formed=1; break; }
  echo "cluster: formation failed (port collision?), retrying"
done
[ -n "$formed" ] || { echo "FAIL: cluster never formed after 5 attempts" >&2; exit 1; }
echo "cluster: 3 replicas ready on $MEMBERS"

# The golden request through every entry replica: identical bytes
# regardless of which replica the client happens to talk to.
cluster_first=""
for port in "$C1_PORT" "$C2_PORT" "$C3_PORT"; do
  body=$(curl -fsS --max-time 60 "http://127.0.0.1:$port/v1/estimate" -d "$req")
  if [ "$(jq -r .Matches <<<"$body")" != "$GOLDEN_MATCHES" ] ||
     [ "$(jq -c .Counts <<<"$body")" != "$GOLDEN_COUNTS" ]; then
    echo "FAIL: cluster estimate via :$port drifted from golden: $body" >&2
    exit 1
  fi
  if [ -z "$cluster_first" ]; then
    cluster_first="$body"
  elif [ "$body" != "$cluster_first" ]; then
    echo "FAIL: cluster estimate via :$port differs from first entry's bytes" >&2
    exit 1
  fi
done
echo "cluster: goldens bit-identical through all 3 entry replicas"

# The routing must be real: the replicas' own counters show forwarded
# requests, and the key was computed exactly once cluster-wide.
total_forwards=0
total_misses=0
for port in "$C1_PORT" "$C2_PORT" "$C3_PORT"; do
  cstats=$(curl -fsS "http://127.0.0.1:$port/v1/stats")
  fwd=$(jq .cluster.forwards <<<"$cstats")
  miss=$(jq .cache.misses <<<"$cstats")
  total_forwards=$((total_forwards + fwd))
  total_misses=$((total_misses + miss))
done
if [ "$total_forwards" -lt 1 ] || [ "$total_misses" != 1 ]; then
  echo "FAIL: cluster routing not exercised: forwards=$total_forwards misses=$total_misses (want >=1 and exactly 1)" >&2
  exit 1
fi
echo "cluster: $total_forwards forwards, 1 cluster-wide computation"

# Kill one replica mid-traffic: the survivors must keep answering the
# golden bytes — degraded to local computation when the dead replica
# owned the key, but never a hang or an error.
kill -9 "$C2_PID"
wait "$C2_PID" 2>/dev/null || true
C2_PID=""
echo "cluster: killed -9 replica :$C2_PORT"

fresh='{"graph":"enron","query":"glet1","trials":3,"seed":8}'
survivor_first=""
for port in "$C1_PORT" "$C3_PORT"; do
  body=$(curl -fsS --max-time 60 "http://127.0.0.1:$port/v1/estimate" -d "$req")
  if [ "$(jq -r .Matches <<<"$body")" != "$GOLDEN_MATCHES" ] ||
     [ "$(jq -c .Counts <<<"$body")" != "$GOLDEN_COUNTS" ]; then
    echo "FAIL: post-kill estimate via :$port drifted from golden: $body" >&2
    exit 1
  fi
  # A never-seen key too: routing of fresh traffic must also survive the
  # dead member, and both survivors must agree byte for byte.
  fbody=$(curl -fsS --max-time 60 "http://127.0.0.1:$port/v1/estimate" -d "$fresh")
  if [ -z "$survivor_first" ]; then
    survivor_first="$fbody"
  elif [ "$fbody" != "$survivor_first" ]; then
    echo "FAIL: survivors disagree on fresh key after kill" >&2
    exit 1
  fi
done
echo "cluster: survivors keep serving goldens (and agree on fresh keys) after kill -9"

# Each survivor's liveness bit for the dead replica must read down within
# 5 s: a failed forward marks it at once, a failed /healthz probe within
# one 2 s health interval.
for port in "$C1_PORT" "$C3_PORT"; do
  up=""
  for _ in $(seq 1 50); do
    up=$(curl -fsS "http://127.0.0.1:$port/v1/stats" |
      jq -r --arg dead "127.0.0.1:$C2_PORT" '.cluster.peers[] | select(.addr == $dead) | .up')
    [ "$up" = "false" ] && break
    sleep 0.1
  done
  if [ "$up" != "false" ]; then
    echo "FAIL: survivor :$port still reads the dead replica :$C2_PORT as up=$up after 5 s" >&2
    exit 1
  fi
done
echo "cluster: both survivors read the dead replica as up: false"
echo "smoke OK"
