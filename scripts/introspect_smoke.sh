#!/bin/sh
# Introspection-plane end-to-end smoke: boot a real corgiserved with the
# structured event log streaming to JSONL, start a detached TRAIN over the
# wire with a client-chosen trace ID, and interrogate the live server with
# SELECT over the same wire protocol — the running job (with its trace)
# must be visible in corgi_jobs and corgi_job_stats, the metrics registry
# in corgi_metrics, and the job transition in corgi_events. Also checks
# the /healthz and /readyz probes and the WAL gauges on /metrics, boots
# with a size-capped rotating event sink, and trains through a
# fault-injected table created over the wire, whose transient read faults
# must reach the server registry (corgi_metrics and /metrics).
set -eux

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'kill $servepid 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/corgiserved" ./cmd/corgiserved

"$workdir/corgiserved" -listen 127.0.0.1:0 -workers 1 \
    -init scripts/serve_init.sql -telemetry 127.0.0.1:0 \
    -wal "$workdir/wal" -events "$workdir/events.jsonl" \
    -events-max-size 16MB -slow-statement 2h >"$workdir/serve.log" 2>&1 &
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

# Start a detached TRAIN with a client trace ID; detach keeps it running
# after this submitting connection closes.
printf '%s\n' \
    '{"op":"train","sql":"SELECT * FROM demo TRAIN BY svm MODEL live WITH learning_rate=0.05, max_epoch_num=1000000, seed=7","detach":true,"trace":"smoke-trace"}' \
    >"$workdir/start.txt"
"$workdir/corgiserved" -connect "$addr" -replay "$workdir/start.txt" >"$workdir/start_out.txt"
# The traced submit ack echoes the trace.
grep -q '"trace":"smoke-trace"' "$workdir/start_out.txt"

# Interrogate the live server with SELECT over the wire: the running job
# must appear in corgi_jobs carrying the client's trace ID.
ok=""
for _ in $(seq 1 50); do
    "$workdir/corgiserved" -connect "$addr" \
        -exec "SELECT * FROM corgi_jobs WHERE state = 'running'" >"$workdir/jobs.txt"
    if grep -q '"j1"' "$workdir/jobs.txt" && grep -q 'smoke-trace' "$workdir/jobs.txt"; then
        ok=1
        break
    fi
    sleep 0.2
done
[ -n "$ok" ] || { echo "running job never appeared in corgi_jobs" >&2; cat "$workdir/jobs.txt" "$workdir/serve.log"; exit 1; }

# Per-job resource accounting: the running job reports wall time and
# tuple progress in corgi_job_stats.
"$workdir/corgiserved" -connect "$addr" \
    -exec "SELECT id, state, wall_ms, tuples FROM corgi_job_stats WHERE id = 'j1'" >"$workdir/jobstats.txt"
grep -q '"j1","running"' "$workdir/jobstats.txt"

# The metrics registry is SQL-queryable.
"$workdir/corgiserved" -connect "$addr" \
    -exec "SELECT name, kind, value FROM corgi_metrics ORDER BY name LIMIT 5" >"$workdir/metrics.txt"
grep -q '"columns":\["name","kind","value"\]' "$workdir/metrics.txt"

# The event ring recorded the job transition, stamped with the trace.
"$workdir/corgiserved" -connect "$addr" \
    -exec "SELECT type, trace_id FROM corgi_events WHERE type = 'job.running'" >"$workdir/events.txt"
grep -q 'job.running' "$workdir/events.txt"
grep -q 'smoke-trace' "$workdir/events.txt"

# The live connection count includes the -exec session itself.
"$workdir/corgiserved" -connect "$addr" \
    -exec "SELECT id, requests FROM corgi_sessions" >"$workdir/sessions.txt"
grep -q '"columns":\["id","requests"\]' "$workdir/sessions.txt"

# Probes and WAL gauges on the telemetry plane.
curl -sf "$telurl/healthz" | grep -q '^ok$'
curl -sf "$telurl/readyz" | grep -q '^ok$'
curl -sf "$telurl/metrics" >"$workdir/prom.txt"
grep -q '^corgipile_wal_size_bytes' "$workdir/prom.txt"
grep -q '^corgipile_wal_last_lsn' "$workdir/prom.txt"
grep -q '^corgipile_wal_checkpoint_age_seconds' "$workdir/prom.txt"

# Cancel the detached job and confirm its terminal event.
printf '%s\n' '{"op":"cancel","job":"j1","wait":true}' >"$workdir/cancel.txt"
"$workdir/corgiserved" -connect "$addr" -replay "$workdir/cancel.txt" >"$workdir/cancel_out.txt"
grep -q '"state":"canceled"' "$workdir/cancel_out.txt"
"$workdir/corgiserved" -connect "$addr" \
    -exec "SELECT type FROM corgi_events WHERE trace_id = 'smoke-trace' AND type = 'job.canceled'" >"$workdir/canceled.txt"
grep -q 'job.canceled' "$workdir/canceled.txt"

# A fault-injected table created over the wire, after boot, registers its
# device with the server's live registry, so a TRAIN through it reports
# its injected transient read faults there. retries=6 gives 7 attempts
# per block read against bursts of 2, so the retries absorb every fault.
"$workdir/corgiserved" -connect "$addr" -exec \
    "CREATE TABLE flaky AS SYNTHETIC(workload='susy', scale=0.1, order='clustered') WITH device='ssd', block_size=32KB, faults='seed=9,read_err=0.05,burst=2'" \
    >"$workdir/create.txt"
grep -q '"ok":true' "$workdir/create.txt"
printf '%s\n' \
    '{"op":"train","sql":"SELECT * FROM flaky TRAIN BY svm MODEL survivor WITH learning_rate=0.05, max_epoch_num=2, retries=6, seed=7","wait":true}' \
    >"$workdir/flaky.txt"
"$workdir/corgiserved" -connect "$addr" -replay "$workdir/flaky.txt" >"$workdir/flaky_out.txt"
grep -q '"state":"done"' "$workdir/flaky_out.txt"
"$workdir/corgiserved" -connect "$addr" \
    -exec "SELECT name, value FROM corgi_metrics WHERE name = 'io.fault.transient'" >"$workdir/faults.txt"
grep -q '"io.fault.transient","[1-9]' "$workdir/faults.txt"
curl -sf "$telurl/metrics" | grep -q '^corgipile_io_fault_transient [1-9]'

# The JSONL event sink mirrors the ring: recovery, statement, and job
# events are all on disk.
grep -q '"ev":"event"' "$workdir/events.jsonl"
grep -q '"type":"wal.recovery"' "$workdir/events.jsonl"
grep -q '"type":"job.running"' "$workdir/events.jsonl"

kill $servepid 2>/dev/null || true
wait $servepid 2>/dev/null || true

echo "introspect smoke: OK"
