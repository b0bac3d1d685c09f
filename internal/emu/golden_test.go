package emu

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"largewindow/internal/golden"
	"largewindow/internal/workload"
)

// TestCheckpointBytesGolden pins the serialized checkpoint — registers,
// canonical page order and contents, warm rings — of two kernels at two
// fast-forward depths. The digests were recorded from the commit before
// the paged memory image landed; the campaign's checkpoint store is
// content-addressed, so any byte that moves here orphans every cached
// checkpoint.
func TestCheckpointBytesGolden(t *testing.T) {
	got := map[string]string{}
	for _, bench := range []string{"bzip2", "treeadd"} {
		src, err := workload.ParseRef("bench:" + bench)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := src.Build(workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		for _, skip := range []uint64{2_000, 9_000} {
			cp, err := BuildCheckpoint(prog, skip)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(cp)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("%s skip=%d", bench, skip)] = fmt.Sprintf("%x", sha256.Sum256(b))
		}
	}
	golden.Check(t, "testdata/checkpoint_bytes.golden",
		"<kernel> skip=<n> <sha256 of json.Marshal(BuildCheckpoint)>, ScaleTest.", got)
}

// TestMemChecksumGolden pins the final architectural memory checksum of
// every registry kernel run to Halt. core.Processor.ArchState reports the
// same value for the same program (the golden-model tests in
// internal/core compare the two), so this is the committed-memory
// identity of both tiers.
func TestMemChecksumGolden(t *testing.T) {
	got := map[string]string{}
	for _, spec := range workload.All() {
		m := New(spec.Build(workload.ScaleTest))
		if _, err := m.Run(1 << 32); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		st := m.Snapshot()
		got[spec.Name] = fmt.Sprintf("%016x/%d", st.MemChecksum, st.InstrCount)
	}
	golden.Check(t, "testdata/mem_checksum.golden",
		"<kernel> <Snapshot().MemChecksum>/<instructions>, ScaleTest, run to halt.", got)
}
