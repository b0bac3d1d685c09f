package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"largewindow/internal/isa"
	"largewindow/internal/workload"
)

// recordGzip is a small shared fixture: a full-halt recording of the
// treeadd kernel at test scale.
func recordFixture(t *testing.T) *Trace {
	t.Helper()
	src, err := workload.ParseRef("bench:treeadd")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Record(src, workload.ScaleTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestEncodeDecodeEncodeByteIdentity is the property test the issue
// gates on: encode → decode → encode must reproduce the exact bytes,
// and the digest must be unchanged.
func TestEncodeDecodeEncodeByteIdentity(t *testing.T) {
	tr := recordFixture(t)
	for _, gz := range []bool{false, true} {
		var first bytes.Buffer
		if err := tr.Write(&first, gz); err != nil {
			t.Fatalf("gz=%v: write: %v", gz, err)
		}
		dec, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("gz=%v: read back: %v", gz, err)
		}
		var second bytes.Buffer
		if err := dec.Write(&second, gz); err != nil {
			t.Fatalf("gz=%v: re-write: %v", gz, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("gz=%v: encode→decode→encode changed bytes (%d vs %d)", gz, first.Len(), second.Len())
		}
		if dec.Digest() != tr.Digest() {
			t.Errorf("gz=%v: digest changed across decode: %s vs %s", gz, dec.Digest(), tr.Digest())
		}
	}
}

// TestGzipDigestStable: compressing must not change content identity.
func TestGzipDigestStable(t *testing.T) {
	tr := recordFixture(t)
	var plain, zipped bytes.Buffer
	if err := tr.Write(&plain, false); err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(&zipped, true); err != nil {
		t.Fatal(err)
	}
	if zipped.Len() >= plain.Len() {
		t.Errorf("gzip body did not shrink: %d vs %d", zipped.Len(), plain.Len())
	}
	dp, err := Read(bytes.NewReader(plain.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dz, err := Read(bytes.NewReader(zipped.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dp.Digest() != dz.Digest() || dp.Identity() != dz.Identity() {
		t.Errorf("identity differs across compression: %s vs %s", dp.Identity(), dz.Identity())
	}
}

func TestReadTypedErrors(t *testing.T) {
	tr := recordFixture(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf, false); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	if _, err := Read(bytes.NewReader([]byte("not a trace at all"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: got %v", err)
	}
	for _, cut := range []int{6, 20, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncated at %d: got %v", cut, err)
		}
	}
	// Version skew: bump the uvarint version byte after magic+flags.
	skew := append([]byte{}, full...)
	skew[5] = 0x7f
	if _, err := Read(bytes.NewReader(skew)); !errors.Is(err, ErrVersion) {
		t.Errorf("version skew: got %v", err)
	}
	// Unknown flags.
	bad := append([]byte{}, full...)
	bad[4] = 0x80
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown flags: got %v", err)
	}
}

func TestVerifyFixture(t *testing.T) {
	tr := recordFixture(t)
	if err := tr.Verify(); err != nil {
		t.Fatalf("freshly recorded trace fails Verify: %v", err)
	}
	if !tr.Halted || tr.Instrs == 0 {
		t.Errorf("fixture metadata off: halted=%v instrs=%d", tr.Halted, tr.Instrs)
	}
	// Tampering with any recorded fact must fail Verify.
	for name, tamper := range map[string]func(*Trace){
		"stream hash": func(t *Trace) { t.StreamHash++ },
		"instrs":      func(t *Trace) { t.Instrs-- },
		"past halt":   func(t *Trace) { t.Instrs++ },
		"halted":      func(t *Trace) { t.Halted = false },
		"code":        func(t *Trace) { t.Code = append([]isa.Instr{{Op: isa.OpNop}}, t.Code...) },
	} {
		tam := *tr
		tamper(&tam)
		if err := tam.Verify(); !errors.Is(err, ErrInvalid) {
			t.Errorf("tampered %s passed Verify: %v", name, err)
		}
	}
}

func TestRecordBudget(t *testing.T) {
	src, err := workload.ParseRef("bench:treeadd")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Record(src, workload.ScaleTest, 500)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Instrs != 500 || tr.Halted {
		t.Errorf("budgeted recording: instrs=%d halted=%v", tr.Instrs, tr.Halted)
	}
	if err := tr.Verify(); err != nil {
		t.Errorf("budgeted trace fails Verify: %v", err)
	}
}

// TestRecordCostIsTheProgram: a container holds the program, not the run.
// Recording to halt and recording 500 instructions write the same code
// and data sections; only the header, which states the run, differs.
func TestRecordCostIsTheProgram(t *testing.T) {
	src, err := workload.ParseRef("bench:treeadd")
	if err != nil {
		t.Fatal(err)
	}
	full := recordFixture(t)
	short, err := Record(src, workload.ScaleTest, 500)
	if err != nil {
		t.Fatal(err)
	}
	fullHdr, fullSecs := splitContainer(t, full)
	shortHdr, shortSecs := splitContainer(t, short)
	if !bytes.Equal(fullSecs, shortSecs) {
		t.Errorf("sections differ: %d bytes to halt, %d bytes for 500 instructions", len(fullSecs), len(shortSecs))
	}
	if bytes.Equal(fullHdr, shortHdr) || full.Instrs <= short.Instrs {
		t.Errorf("headers do not tell the runs apart: %d vs %d instructions", full.Instrs, short.Instrs)
	}
}

// splitContainer encodes tr without compression and returns the header
// JSON and every byte after it (the sections, end tag included).
func splitContainer(t *testing.T, tr *Trace) (hdr, sections []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf, false); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[len(magic)+1:]
	_, n := binary.Uvarint(b) // version
	b = b[n:]
	hlen, n := binary.Uvarint(b)
	b = b[n:]
	return b[:hlen], b[hlen:]
}

func TestRecordRefRejectsTraceOfTrace(t *testing.T) {
	tr := recordFixture(t)
	path := t.TempDir() + "/fixture.wtr"
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := RecordRef("trace:"+path, workload.ScaleTest, 100); err == nil {
		t.Error("re-recording a trace file should be rejected")
	}
}
