#!/bin/sh
# Pre-merge gate: static checks, build, race-enabled tests, and a smoke
# run of the fault-injection campaign (seeded corruption must still be
# detected within bounded time). Run from the repo root: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "FAIL: files need gofmt:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== harness parallel RunAll race smoke =="
go test -race -count=1 -run 'TestRunAllParallelRace' ./internal/harness/

echo "== fast-forward equivalence + determinism smoke =="
go test -count=1 -run 'TestFastForwardEquivalence|TestFastForwardEngages|TestRunDeterminism' ./internal/core/

echo "== heap steady-state allocation budget =="
go test -count=1 -run 'TestSteadyStateAllocFree' ./internal/heap/

echo "== base + WIB + fleet cell allocation budgets + alloc-free issue select / dispatch / indexed LSQ / bank select / memory hot path / emulator run loop =="
go test -count=1 -run 'TestBaseCellAllocBudget|TestWIBCellAllocBudget|TestIndexedPathsAllocFree' ./internal/core/
go test -count=1 -run 'TestMemoryHotPathAllocFree' ./internal/isa/
go test -count=1 -run 'TestRunLoopAllocFree' ./internal/emu/
go test -count=1 -run 'TestFleetCellAllocBudget' ./internal/service/

echo "== fast interpreter vs Step fuzz smoke (every opcode, every sink kind) =="
go test -run '^$' -fuzz '^FuzzRunMatchesStep$' -fuzztime 10s ./internal/emu/

echo "== paged memory vs its map-based oracle, shared frozen images (race) =="
go test -race -count=1 ./internal/isa ./internal/emu
go test -race -count=10 -run 'TestMemoryFrozenConcurrentClones' ./internal/isa

echo "== fault-injection smoke sweep =="
go test -count=1 -run 'TestCampaignDetectsEveryFault|TestWatchdogFaultsBounded' ./internal/fault/

echo "== trace record -> replay bit-identity + byte-identity goldens =="
# The acceptance bar for the trace frontend (DESIGN.md §13): replaying a
# recorded trace must produce Stats bit-identical to simulating the
# builder-built program (gzip, art, treeadd; Base and WIB; in memory and
# through a .wtr.gz file). The goldens pin what was recorded from the last
# commit with map-based memory: .wtr bytes and trace:sha256: identities,
# checkpoint JSON bytes, and every kernel's final memory checksum.
go test -count=1 -run 'TestReplayBitIdenticalStats|TestReplayRoundTripThroughFile|TestContainerBytesGolden' ./internal/trace/
go test -count=1 -run 'TestCheckpointBytesGolden|TestMemChecksumGolden' ./internal/emu/

echo "== synthetic generator calibration =="
# The synth: dials must land where they claim: measured DL1 miss ratio
# and branch-taken entropy within tolerance of the requested spec, and
# the MLP / working-set dials must move their target metrics
# monotonically.
go test -count=1 -run 'TestSynthCalibration|TestSynthMLPDial|TestSynthL2Dial' ./internal/trace/

echo "== trace decoder fuzz smoke (typed errors, never panic) =="
go test -run '^$' -fuzz '^FuzzRead$' -fuzztime 10s ./internal/trace/

echo "== external workloads through the campaign stack (race) =="
# trace: and synth: refs must run end to end through a sampled, cached
# campaign (resume recomputes zero cells) and through the distributed
# coordinator/worker path (identity verified at the executor, dedup on
# resubmit).
go test -race -count=1 -run 'TestExternalWorkloadsSampledCachedResume|TestExternalWorkloadIdentityStability' ./internal/harness/
go test -race -count=1 -run 'TestDistributedExternalWorkloads' ./internal/service/

echo "== campaign resume smoke (race-enabled engine + zero recomputation) =="
# fig4 on a benchmark subset at -parallel 4 under -race, persisted to a
# fresh cache; the re-run with -resume must execute ZERO cells and render
# byte-identical tables.
campdir="$(mktemp -d)"
go run -race ./cmd/experiments -run fig4 -bench gzip,art,treeadd -scale test \
    -instr 50000 -parallel 4 -cache-dir "$campdir/cache" -progress=false \
    >"$campdir/first.out" 2>"$campdir/first.err"
go run ./cmd/experiments -run fig4 -bench gzip,art,treeadd -scale test \
    -instr 50000 -parallel 4 -cache-dir "$campdir/cache" -resume -progress=false \
    >"$campdir/second.out" 2>"$campdir/second.err"
if ! grep -q ' 0 executed' "$campdir/second.err"; then
    echo "FAIL: resumed campaign recomputed cells:"
    cat "$campdir/second.err"
    rm -rf "$campdir"
    exit 1
fi
if ! diff -u "$campdir/first.out" "$campdir/second.out"; then
    echo "FAIL: resumed campaign rendered different tables"
    rm -rf "$campdir"
    exit 1
fi
rm -rf "$campdir"
echo "  resume: 0 cells recomputed, tables identical"

echo "== campaign service tests (race) =="
# Lease expiry, zombie 410s, backpressure, drain, corrupt-completion
# rejection, and the in-process chaos sweep — all race-enabled.
go test -race -count=1 ./internal/service/

echo "== observability smoke (metrics + SSE + fleet trace) =="
# /metrics must parse and land on exact totals; an SSE subscriber must
# see submit -> lease -> complete with one correlation ID; a traced sweep
# must leave >= 1 span per lifecycle stage per cell and stitch into a
# valid Chrome trace.
go test -count=1 -run 'TestObsMetricsScrapeMonotone|TestObsSSELifecycleSmoke|TestObsFleetTraceSmoke' ./internal/service/

echo "== observability race gate (stats + subscriber churn) =="
go test -race -count=1 \
    -run 'TestObsStatsRaceUnderChurn|TestObsSSESubscriberChurnDuringCampaign|TestBusConcurrentChurn' \
    ./internal/service/ ./internal/obs/

echo "== distributed campaign chaos gate =="
# The service's acceptance bar (DESIGN.md §10): the same sweep run
# serially and on a coordinator + 3 workers — one of them kill -9'd
# mid-campaign — must complete, produce a byte-identical record store,
# and resuming from the fleet's store must re-execute ZERO cells.
svcdir="$(mktemp -d)"
go build -o "$svcdir/bin/" ./cmd/experiments ./cmd/wibserve ./cmd/wibworker ./cmd/wibtrace
"$svcdir/bin/experiments" -run fig4 -bench gzip,art,treeadd -scale test \
    -instr 500000 -parallel 4 -cache-dir "$svcdir/serial" -progress=false \
    >"$svcdir/serial.out" 2>"$svcdir/serial.err"
"$svcdir/bin/wibserve" -addr 127.0.0.1:0 -cache-dir "$svcdir/dist" \
    -lease-ttl 2s -span-log "$svcdir/spans.jsonl" \
    >"$svcdir/serve.out" 2>"$svcdir/serve.err" &
servepid=$!
i=0
while [ $i -lt 100 ] && ! grep -q 'listening on' "$svcdir/serve.out" 2>/dev/null; do
    sleep 0.1; i=$((i+1))
done
url="http://$(sed -n 's/^wibserve listening on //p' "$svcdir/serve.out")"
wpids=""
for i in 1 2 3; do
    "$svcdir/bin/wibworker" -server "$url" -id "chaos-$i" -parallel 2 \
        >"$svcdir/w$i.err" 2>&1 &
    wpids="$wpids $!"
done
victim=$(echo $wpids | awk '{print $1}')
timeout 300 "$svcdir/bin/experiments" -server "$url" -run fig4 \
    -bench gzip,art,treeadd -scale test -instr 500000 -parallel 4 \
    -cache-dir "$svcdir/client" -progress=false \
    >"$svcdir/dist.out" 2>"$svcdir/dist.err" &
exppid=$!
sleep 1
# Live scrape while the fleet is mid-campaign: the exposition must parse
# (non-empty, first line a comment) even under churn.
if command -v curl >/dev/null 2>&1; then
    curl -sf "$url/metrics" >"$svcdir/metrics.txt" || {
        echo "FAIL: /metrics unreachable mid-campaign"; exit 1; }
    head -1 "$svcdir/metrics.txt" | grep -q '^#' || {
        echo "FAIL: /metrics exposition malformed:"; head -5 "$svcdir/metrics.txt"; exit 1; }
fi
kill -9 "$victim" 2>/dev/null || true
if ! wait $exppid; then
    echo "FAIL: distributed sweep did not survive a killed worker:"
    cat "$svcdir/dist.err"
    kill $servepid $wpids 2>/dev/null || true
    rm -rf "$svcdir"
    exit 1
fi
kill -TERM $servepid $wpids 2>/dev/null || true
for p in $wpids $servepid; do wait $p 2>/dev/null || true; done
# Stitch the fleet's span log into one Chrome trace and validate it with
# the repo's own trace reader — the distributed-tracing acceptance bar.
"$svcdir/bin/wibtrace" -fleet "$svcdir/spans.jsonl" -o "$svcdir/fleet.trace.json" \
    >"$svcdir/fleet.out" 2>&1 || {
    echo "FAIL: fleet trace did not stitch:"; cat "$svcdir/fleet.out"; exit 1; }
"$svcdir/bin/wibtrace" -render "$svcdir/fleet.trace.json" >/dev/null || {
    echo "FAIL: stitched fleet trace fails the trace validator"; exit 1; }
grep -E '^(spans|hops)' "$svcdir/fleet.out" | sed 's/^/  fleet /' || true
if ! diff -r "$svcdir/serial/ca" "$svcdir/dist/ca" >/dev/null || \
   ! diff -r "$svcdir/serial/ca" "$svcdir/client/ca" >/dev/null; then
    echo "FAIL: fleet record stores differ from the serial run"
    rm -rf "$svcdir"
    exit 1
fi
if ! diff -u "$svcdir/serial.out" "$svcdir/dist.out"; then
    echo "FAIL: fleet-rendered tables differ from the serial run"
    rm -rf "$svcdir"
    exit 1
fi
"$svcdir/bin/experiments" -run fig4 -bench gzip,art,treeadd -scale test \
    -instr 500000 -parallel 4 -cache-dir "$svcdir/dist" -resume -progress=false \
    >"$svcdir/resume.out" 2>"$svcdir/resume.err"
if ! grep -q ' 0 executed' "$svcdir/resume.err"; then
    echo "FAIL: resume from the fleet's store recomputed cells:"
    cat "$svcdir/resume.err"
    rm -rf "$svcdir"
    exit 1
fi
sed -n 's/^coordinator:/  coordinator:/p' "$svcdir/dist.err" || true
rm -rf "$svcdir"
echo "  chaos: sweep survived a kill -9'd worker, stores byte-identical, 0 cells recomputed on resume"

echo "== checkpointed fast-forward smoke (shared checkpoints + determinism) =="
# A fig4 sweep (4 configs x 2 benchmarks) with a functional skip must
# build exactly ONE checkpoint per benchmark and share it across every
# config: "2 built / 6 reused". Two independent runs must persist
# byte-identical record and checkpoint caches, and a re-run against a warm
# checkpoint store (records wiped) must report ZERO functional
# re-executions: "0 built / 8 reused".
ckdir="$(mktemp -d)"
go run ./cmd/experiments -run fig4 -bench gzip,art -scale test \
    -instr 2000 -skip 2000 -parallel 4 -cache-dir "$ckdir/c1" -progress=false \
    >"$ckdir/first.out" 2>"$ckdir/first.err"
if ! grep -q 'checkpoints: 2 built / 6 reused' "$ckdir/first.err"; then
    echo "FAIL: checkpoints not shared across configs:"
    cat "$ckdir/first.err"
    rm -rf "$ckdir"
    exit 1
fi
go run ./cmd/experiments -run fig4 -bench gzip,art -scale test \
    -instr 2000 -skip 2000 -parallel 4 -cache-dir "$ckdir/c2" -progress=false \
    >"$ckdir/second.out" 2>"$ckdir/second.err"
if ! diff -r "$ckdir/c1/ca" "$ckdir/c2/ca" >/dev/null || \
   ! diff -r "$ckdir/c1/ckpt" "$ckdir/c2/ckpt" >/dev/null; then
    echo "FAIL: checkpointed runs are not byte-deterministic"
    rm -rf "$ckdir"
    exit 1
fi
rm -rf "$ckdir/c1/ca"
go run ./cmd/experiments -run fig4 -bench gzip,art -scale test \
    -instr 2000 -skip 2000 -parallel 4 -cache-dir "$ckdir/c1" -progress=false \
    >"$ckdir/third.out" 2>"$ckdir/third.err"
if ! grep -q 'checkpoints: 0 built / 8 reused' "$ckdir/third.err"; then
    echo "FAIL: warm checkpoint store re-ran the functional pass:"
    cat "$ckdir/third.err"
    rm -rf "$ckdir"
    exit 1
fi
if ! diff -u "$ckdir/first.out" "$ckdir/third.out"; then
    echo "FAIL: checkpoint-cache-hit run rendered different tables"
    rm -rf "$ckdir"
    exit 1
fi
rm -rf "$ckdir"
echo "  checkpoints: 1 functional pass per benchmark, byte-identical caches, 0 rebuilds on warm store"

echo "== measured-region window smoke (skip=0 unchanged) =="
go test -count=1 -run 'TestRestoreSkipZeroBitIdentical|TestSkipMeasureWindow|TestCheckpointRestoreRoundTrip' \
    ./internal/core/ ./internal/emu/

echo "== telemetry smoke =="
# End-to-end: a sampled WIB run must produce artifacts that wibtrace
# validates (JSONL series, Chrome trace, Kanata stream).
teldir="$(mktemp -d)"
trap 'rm -rf "$teldir"' EXIT
go run ./cmd/wibsim -bench mgrid -scale test -config wib -instr 200000 \
    -telemetry -telemetry-out "$teldir/mgrid.jsonl" -sample-interval 500 \
    -trace-out "$teldir/mgrid.trace.json" -kanata "$teldir/mgrid.kanata" \
    >/dev/null
go run ./cmd/wibtrace -render "$teldir/mgrid.jsonl" >/dev/null
go run ./cmd/wibtrace -render "$teldir/mgrid.trace.json" >/dev/null
go run ./cmd/wibtrace -render "$teldir/mgrid.kanata" >/dev/null

echo "== telemetry overhead (disabled path must stay near-free) =="
go test -count=1 -run TestDisabledTelemetryOverhead -v ./internal/telemetry/ | grep -E 'overhead|PASS|FAIL'

echo "== observability overhead (fleet hooks inside their per-cell budget, disabled ones free) =="
# Best-of-N sweep with events+spans on minus best-of-N with them off must
# stay under an absolute budget of microseconds per cell (a ratio of the
# two moved with the protocol's own speed), and the disabled publish/span
# hooks must be zero-allocation.
go test -count=1 -run 'TestDisabledObsOverhead|TestDisabledObsZeroAlloc' -v ./internal/service/ | grep -E 'per cell|PASS|FAIL'

echo "== sampled campaign smoke (race-enabled parallel engine + resume) =="
# A fig4 subset where every cell runs as a SMARTS sampled simulation
# (auto-period plan), under -race at -parallel 4; the re-run with -resume
# must execute ZERO cells (the sampling plan is part of the cell
# identity) and render byte-identical tables.
smpdir="$(mktemp -d)"
go run -race ./cmd/experiments -run fig4 -bench gzip,art,treeadd -scale test \
    -sample 'n=8,len=500,warm=500,seed=3,random' -parallel 4 \
    -cache-dir "$smpdir/cache" -progress=false \
    >"$smpdir/first.out" 2>"$smpdir/first.err"
go run ./cmd/experiments -run fig4 -bench gzip,art,treeadd -scale test \
    -sample 'n=8,len=500,warm=500,seed=3,random' -parallel 4 \
    -cache-dir "$smpdir/cache" -resume -progress=false \
    >"$smpdir/second.out" 2>"$smpdir/second.err"
if ! grep -q ' 0 executed' "$smpdir/second.err"; then
    echo "FAIL: resumed sampled campaign recomputed cells:"
    cat "$smpdir/second.err"
    rm -rf "$smpdir"
    exit 1
fi
if ! diff -u "$smpdir/first.out" "$smpdir/second.out"; then
    echo "FAIL: resumed sampled campaign rendered different tables"
    rm -rf "$smpdir"
    exit 1
fi
rm -rf "$smpdir"
echo "  sampled: race-clean at -parallel 4, 0 cells recomputed on resume, tables identical"

echo "== model-pruned exploration smoke (audit slice + resume) =="
# experiments -explore over the default grid must report its pruning
# accounting on the campaign summary, render the live audit-slice model
# error, and — re-run against the same cache with -resume — execute ZERO
# cells while rendering byte-identical tables (the audit slice is seeded,
# so the resumed exploration re-selects the same cells).
expdir="$(mktemp -d)"
go run ./cmd/experiments -explore -bench gzip,art,mst -scale test \
    -instr 60000 -parallel 4 -cache-dir "$expdir/cache" -progress=false \
    >"$expdir/first.out" 2>"$expdir/first.err"
if ! grep -q 'model: [0-9]* pruned / [0-9]* audited' "$expdir/first.err"; then
    echo "FAIL: exploration summary carries no pruning accounting:"
    cat "$expdir/first.err"
    rm -rf "$expdir"
    exit 1
fi
if ! grep -q 'audit slice model error:' "$expdir/first.out"; then
    echo "FAIL: exploration report carries no audit-slice error:"
    cat "$expdir/first.out"
    rm -rf "$expdir"
    exit 1
fi
go run ./cmd/experiments -explore -bench gzip,art,mst -scale test \
    -instr 60000 -parallel 4 -cache-dir "$expdir/cache" -resume -progress=false \
    >"$expdir/second.out" 2>"$expdir/second.err"
if ! grep -q ' 0 executed' "$expdir/second.err"; then
    echo "FAIL: resumed exploration recomputed cells:"
    cat "$expdir/second.err"
    rm -rf "$expdir"
    exit 1
fi
if ! diff -u "$expdir/first.out" "$expdir/second.out"; then
    echo "FAIL: resumed exploration rendered different tables"
    rm -rf "$expdir"
    exit 1
fi
rm -rf "$expdir"
echo "  explore: audit error rendered, 0 cells recomputed on resume, tables identical"

echo "check: all gates passed"
