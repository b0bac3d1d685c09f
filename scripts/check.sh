#!/bin/sh
# Pre-merge gate. `go test` is the gate: every smoke that used to drive a
# binary from here (campaign / sampled / explore resume, checkpoint
# sharing, telemetry artifacts, and the chaos gate's fleet of real
# processes with its kill -9) is a Go test under cmd/, run by the two
# test lines below. What stays in shell is what needs the toolchain
# itself: gofmt, vet, build, -fuzz, and a repeated -race run.
# Run from the repo root: scripts/check.sh
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

echo "== go test (allocation budgets and overhead gates skip themselves under -race) =="
go test ./...

# A gate that names its test passes vacuously once the test is renamed:
# `go test -run` of nothing prints "[no tests to run]" and `-fuzz` of
# nothing prints PASS, both with status 0. So each named gate first
# proves its target exists.
gate_exists() { # <test or fuzz name> <package>
    if ! go test -list "^$1\$" "$2" | grep -qx "$1"; then
        echo "FAIL: gate names a test that does not exist: $1 in $2"
        exit 1
    fi
}

echo "== fast interpreter vs Step fuzz smoke (every opcode, every sink kind) =="
gate_exists FuzzRunMatchesStep ./internal/emu/
go test -run '^$' -fuzz '^FuzzRunMatchesStep$' -fuzztime 10s ./internal/emu/

echo "== tail-logged fast-forward vs one-pass checkpoint build fuzz smoke (tail fills the rings, halts in the prefix, ring left short) =="
gate_exists FuzzBuildCheckpointMatchesFullLog ./internal/emu/
go test -run '^$' -fuzz '^FuzzBuildCheckpointMatchesFullLog$' -fuzztime 10s ./internal/emu/

echo "== checkpoint at k then resume vs straight run fuzz smoke (the checkpoint and its JSON copy, k before and past a halt) =="
gate_exists FuzzCheckpointResumeMatchesStraightRun ./internal/emu/
go test -run '^$' -fuzz '^FuzzCheckpointResumeMatchesStraightRun$' -fuzztime 10s ./internal/emu/

echo "== trace decoder fuzz smoke (typed errors, never panic; seeds include an older container whose records section is skipped) =="
gate_exists FuzzRead ./internal/trace/
go test -run '^$' -fuzz '^FuzzRead$' -fuzztime 10s ./internal/trace/

echo "== calendar event queue vs heap oracle fuzz smoke (schedule/pop/jump/drop scripts) =="
gate_exists FuzzEventQueueMatchesHeap ./internal/core/
go test -run '^$' -fuzz '^FuzzEventQueueMatchesHeap$' -fuzztime 10s ./internal/core/

echo "== slot set vs naive scan fuzz smoke (add/remove/firstFrom/countRange scripts) =="
gate_exists FuzzSlotSetMatchesNaive ./internal/core/
go test -run '^$' -fuzz '^FuzzSlotSetMatchesNaive$' -fuzztime 10s ./internal/core/

echo "== coordinator transitions vs queue/place model fuzz smoke (submit/lease/settle/expire/promote scripts) =="
gate_exists FuzzCoordinatorLifecycle ./internal/service/
go test -run '^$' -fuzz '^FuzzCoordinatorLifecycle$' -fuzztime 10s ./internal/service/

echo "== model profiler vs its pre-decode-table oracle fuzz smoke (ALU, loads, stores, branches, calls; never writing Zero) =="
gate_exists FuzzCollectMatchesOracle ./internal/model/
go test -run '^$' -fuzz '^FuzzCollectMatchesOracle$' -fuzztime 10s ./internal/model/

echo "== removal audit is still in the suite (it ran twice above, under ./...) =="
gate_exists TestAudit ./internal/audit/

echo "== timing-identity gates are still in the suite (they ran twice above, under ./...) =="
# Stats bit-identical to the recorded digests, fast-forward on == off
# (held loads' closed-form examinations included), and the held-load rule.
gate_exists TestStatsDigestGolden ./internal/core/
gate_exists TestFastForwardEquivalence ./internal/core/
gate_exists TestFastForwardBudgetStops ./internal/core/
gate_exists TestDeferredLoadHeldUntilWoken ./internal/core/

echo "== fleet memory gates are still in the suite (they ran above, under ./...; both skip under -short, the retained-heap one under -race too) =="
gate_exists TestFleetCellAllocBudget ./internal/service/
gate_exists TestFleetCellRetainedHeap ./internal/service/

echo "== requests waiting on one cell answer from the block its verdict left them, and the cell keeps no record (race, repeated) =="
gate_exists TestWaitersAnswerFromTheFinishingBlock ./internal/service/
go test -race -count=10 -run '^TestWaitersAnswerFromTheFinishingBlock$' ./internal/service/

echo "== shared frozen memory images under concurrent clones; page runs are each memory's own and bounded (race, repeated) =="
gate_exists TestMemoryFrozenConcurrentClones ./internal/isa
gate_exists TestMemoryDifferentialCatchesSharedRun ./internal/isa
gate_exists TestMemoryRunBound ./internal/isa
go test -race -count=10 -run '^(TestMemoryFrozenConcurrentClones|TestMemoryDifferentialCatchesSharedRun|TestMemoryRunBound)$' ./internal/isa

echo "== explorer batches give the pooled oracle's report; parallel profiling gives the serial loop's profiles (race, repeated) =="
gate_exists TestExploreMatchesOracle ./internal/model
gate_exists TestCollectProfilesMatchesSerial ./internal/model
go test -race -count=10 -run '^(TestExploreMatchesOracle|TestCollectProfilesMatchesSerial)$' ./internal/model

echo "== an explore pass gives the same report at every session width, one build a program a batch (race, repeated) =="
gate_exists TestExploreReportIndependentOfParallel ./internal/harness
go test -race -count=5 -run '^TestExploreReportIndependentOfParallel$' ./internal/harness

echo "== cells in flight share one program build, and a panicking build fails every waiter (race, repeated) =="
gate_exists TestCellsInFlightShareOneBuild ./internal/harness
gate_exists TestBuildPanicReachesEveryCell ./internal/harness
go test -race -count=10 -run '^(TestCellsInFlightShareOneBuild|TestBuildPanicReachesEveryCell)$' ./internal/harness

echo "== a cancelled ExploreContext stops its cells in flight and leaves no goroutine, engine workers included (race, repeated) =="
gate_exists TestExploreContextCancelStopsCellsInFlight .
go test -race -count=5 -run '^TestExploreContextCancelStopsCellsInFlight$' .

echo "== sampled windows on concurrent snapshots give the serial loop's outcome (race, repeated) =="
gate_exists TestRunParallelMatchesSerial ./internal/sample
go test -race -count=10 -run '^TestRunParallelMatchesSerial$' ./internal/sample

echo "== a cell run by many callers at once fails once: one Failure, one FAIL line (race, repeated) =="
gate_exists TestFailureRecordedOnce ./internal/harness
go test -race -count=10 -run '^TestFailureRecordedOnce$' ./internal/harness

echo "check: all gates passed"
