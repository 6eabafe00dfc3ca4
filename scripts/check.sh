#!/bin/sh
# Full verification gate, equivalent to `make check`: build, vet, the test
# suite, the race detector over the internal packages, and the fuzz seed
# corpora (hostile block/tuple headers must stay rejected; hostile WAL
# bytes must replay to a clean prefix without a panic; any statement text
# must parse or fail cleanly, and a parsed one must survive Render; any
# LIBSVM text must read as the reference reader reads it, and a dataset
# read must survive WriteLIBSVM; a number the exact decimal parser accepts
# must parse to strconv.ParseFloat's bits; a request line the server's
# one-pass decoder accepts must be one json.Unmarshal decodes alike, and
# any other must get json.Unmarshal's exact error).
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# Non-test Go+asm lines outside benchmark/, per package and in total, over
# the tracked files: the one line count CHANGES.md and ROADMAP.md cite.
git ls-files -- '*.go' '*.s' ':!:*_test.go' ':!:benchmark/' | xargs wc -l |
	awk '$2 != "total" { p = $2; sub("/[^/]*$", "", p); if (p == $2) p = "."; n[p] += $1; t += $1 }
	END { for (p in n) printf "%6d %s\n", n[p], p | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'
# The lane kernels' Go reference loops are the only path off amd64, and no
# other step builds for another GOARCH.
GOARCH=arm64 go vet ./internal/ml/ ./internal/core/
go test ./...
# The lane kernel tiers this host ran (avx512, avx2, go): a tier the CPU
# lacks shows as SKIP, so a green log says which kernels it covered.
tiers=$(go test -count=1 -v -run '^TestAccuracyMatchesPredict$' ./internal/ml/)
echo "$tiers" | grep -E '^ +--- (PASS|SKIP): TestAccuracyMatchesPredict/'
# At GOAMD64=v3 the compiler may use FMA; the MLP goldens and the lane
# tests must still hold, proving it fuses no s += a*b the kernels rely on.
GOAMD64=v3 go test ./internal/ml/ ./internal/core/
go test -race ./internal/...
go test -run 'Fuzz' ./internal/storage/ ./internal/sqlparse/ ./internal/data/ ./internal/decimal/ ./internal/serve/ ./internal/ml/

# The benchmark harness is its own module (benchmark/go.mod) and calls into
# internal/ directly, so the root module's build does not cover it: an
# internal rename would otherwise break it unnoticed.
(cd benchmark && go vet ./... && go test ./...)

# EXPLAIN ANALYZE golden output: the executed-plan tree must keep its
# Postgres-style shape — node headers, tree connectors, and per-node
# actual annotations — end to end through the SQL front-end.
plan=$(go run ./cmd/corgisql -c "CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.05) WITH block_size=16KB; EXPLAIN ANALYZE SELECT * FROM t TRAIN BY svm WITH shuffle='corgipile', buffer_fraction=0.1, max_epoch_num=2")
echo "$plan" | grep -q 'SGD (model=svm'
echo "$plan" | grep -q '└─ TupleShuffle'
echo "$plan" | grep -q '└─ BlockShuffle'
echo "$plan" | grep -q '(actual: rows='
echo "$plan" | grep -q 'EXPLAIN ANALYZE: model'

# A misspelt WITH key fails the statement and names the key, instead of
# training with the default.
if err=$(go run ./cmd/corgisql -c "CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.05); SELECT * FROM t TRAIN BY svm WITH lerning_rate=9" 2>&1 >/dev/null); then
	echo "corgisql accepted WITH lerning_rate=9" >&2
	exit 1
fi
echo "$err" | grep -q 'lerning_rate'

# Serving-plane smoke: boot corgiserved, replay the docs/PROTOCOL.md
# transcript byte-for-byte, scrape per-job telemetry, run a tiny
# serve_mixed benchmark pass.
./scripts/serve_smoke.sh

# Durability smoke: SIGKILL a WAL-backed corgiserved mid-catalog, restart
# without -init, assert recovery + incremental TRAIN ... resume.
./scripts/recovery_smoke.sh

# Replication smoke: primary + streaming replica, lag gauge to zero,
# SIGKILL the primary mid-ingest, PROMOTE, and assert the promoted
# server's resume TRAIN is byte-identical to single-node crash recovery.
./scripts/replication_smoke.sh

# Introspection smoke: boot corgiserved with a rotating event log, start
# a detached traced TRAIN, and interrogate the live server with SELECT
# (corgi_jobs / corgi_job_stats / corgi_metrics / corgi_events) over the
# wire; probe /healthz, /readyz, and the WAL gauges; train through a
# fault-injected table and find its transient faults in corgi_metrics and
# /metrics.
./scripts/introspect_smoke.sh
