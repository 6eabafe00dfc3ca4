#!/bin/sh
# Serving-plane end-to-end smoke: boot a real corgiserved, replay the
# docs/PROTOCOL.md worked transcript against it and diff the responses
# byte-for-byte against the documented ones, scrape the per-job telemetry
# feed while a TRAIN is live, check per-job durable artifacts, and run a
# short pass of the benchmark's serve_mixed workload. Fails on any drift
# between the protocol document and the server's actual behavior.
set -eux

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'kill $servepid 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/corgiserved" ./cmd/corgiserved

# Extract the worked transcript (C: request / S: expected-response pairs)
# from the protocol document.
awk '/^## Worked transcript/{s=1} s&&/^## /&&!/Worked transcript/{s=0} s' docs/PROTOCOL.md \
    | grep -E '^[CS]: ' >"$workdir/transcript.txt"
grep -c '^C: ' "$workdir/transcript.txt" | grep -qv '^0$'

# Boot the server exactly as the document describes (workers=1, catalog
# from scripts/serve_init.sql), with telemetry and per-job artifacts on.
"$workdir/corgiserved" -listen 127.0.0.1:0 -workers 1 \
    -init scripts/serve_init.sql -telemetry 127.0.0.1:0 \
    -run-root "$workdir/runs" >"$workdir/serve.log" 2>&1 &
servepid=$!

addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^corgiserved: listening on \([^ ]*\).*/\1/p' "$workdir/serve.log" | head -n 1)
    [ -n "$addr" ] && break
    kill -0 $servepid || { cat "$workdir/serve.log"; exit 1; }
    sleep 0.2
done
[ -n "$addr" ] || { echo "corgiserved never started" >&2; cat "$workdir/serve.log"; exit 1; }
telurl=$(sed -n 's/^corgiserved: telemetry on //p' "$workdir/serve.log" | head -n 1)

# Replay the documented transcript verbatim; the responses must match the
# documented S: lines byte-for-byte.
"$workdir/corgiserved" -connect "$addr" -replay "$workdir/transcript.txt" >"$workdir/replay.txt"
grep '^S: ' "$workdir/transcript.txt" >"$workdir/expected.txt"
diff -u "$workdir/expected.txt" "$workdir/replay.txt"

# Per-job telemetry: start a long TRAIN on a fresh session, scrape its
# private /run?job= feed mid-flight, then cancel it. Detached, because the
# replay client hangs up as soon as it has the ack, and a dropped session
# cancels its attached jobs — before the first epoch, as often as not.
printf '%s\n' \
    '{"op":"train","sql":"SELECT * FROM demo TRAIN BY svm MODEL live WITH learning_rate=0.05, max_epoch_num=1000000, seed=7","detach":true}' \
    >"$workdir/start.txt"
"$workdir/corgiserved" -connect "$addr" -replay "$workdir/start.txt" >"$workdir/start_out.txt" &
replaypid=$!
# The job is j3 (the transcript consumed j1/j2). Wait for its feed to
# publish a first epoch under the job's run label, with the shuffle
# buffer's fill level (the first snapshot can precede all three), then
# check the job table.
ok=""
for _ in $(seq 1 50); do
    if curl -sf "$telurl/run?job=j3" >"$workdir/job.json" 2>/dev/null \
        && grep -q '"epoch"' "$workdir/job.json" \
        && grep -q '"run": "j3 train live"' "$workdir/job.json" \
        && grep -q '"buffer_tuples"' "$workdir/job.json"; then ok=1; break; fi
    sleep 0.2
done
[ -n "$ok" ] || { echo "per-job feed never published" >&2; cat "$workdir/serve.log"; exit 1; }
# The shared /metrics registry serves the live runtime gauges; training
# counters live in each job's private registry (see runs/<id>/metrics.prom).
curl -sf "$telurl/metrics" | grep -q '^corgipile_runtime_goroutines'

printf '%s\n' '{"op":"cancel","job":"j3","wait":true}' '{"op":"status"}' >"$workdir/cancel.txt"
"$workdir/corgiserved" -connect "$addr" -replay "$workdir/cancel.txt" >"$workdir/cancel_out.txt"
grep -q '"state":"canceled"' "$workdir/cancel_out.txt"
wait $replaypid 2>/dev/null || true

# Per-job durable artifacts appear once the job is terminal. metrics.prom is
# written last, so wait for its content rather than for the manifest.
for _ in $(seq 1 50); do
    grep -qs '^corgipile_sgd_tuples' "$workdir/runs/j3/metrics.prom" && break
    sleep 0.2
done
grep -q '"tool": "corgiserved"' "$workdir/runs/j3/manifest.json"
grep -q '"epoch":1' "$workdir/runs/j3/epochs.jsonl"
grep -q '^corgipile_sgd_tuples' "$workdir/runs/j3/metrics.prom"

kill $servepid 2>/dev/null || true
wait $servepid 2>/dev/null || true

# Load end to end: a tiny pass of the benchmark's serve_mixed workload
# (PREDICTs with every 10th request an INSERT, over a real server) must
# answer correctly and fail nothing. The cancel/slot probe is
# TestCancelMidEpochReleasesSlot.
(cd benchmark && go run . -workload serve_mixed -tiny -seconds 2 -tmp "$workdir/bench") >"$workdir/load.txt"
grep -q '"correct":true' "$workdir/load.txt"
grep -q '"failed":0,' "$workdir/load.txt"

echo "serve smoke: OK"
