package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"os"
	"testing"

	"largewindow/internal/workload"
)

// FuzzRead drives the decoder with arbitrary bytes plus mutations of a
// valid corpus: it must either decode successfully or return one of the
// typed errors — never panic, never hang, never return an untyped
// error.
func FuzzRead(f *testing.F) {
	src, err := workload.ParseRef("bench:treeadd")
	if err != nil {
		f.Fatal(err)
	}
	tr, err := Record(src, workload.ScaleTest, 2000)
	if err != nil {
		f.Fatal(err)
	}
	for _, gz := range []bool{false, true} {
		var buf bytes.Buffer
		if err := tr.Write(&buf, gz); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		half := buf.Len() / 2
		f.Add(buf.Bytes()[:half])
	}
	// An older writer's container: the decoder must read through and
	// skip its records section, plain and gzip.
	v1, err := os.ReadFile(v1Fixture)
	if err != nil {
		f.Fatal(err)
	}
	var v1gz bytes.Buffer
	v1gz.Write(append([]byte(magic), flagGzip))
	zw := gzip.NewWriter(&v1gz)
	if _, err := zw.Write(v1[len(magic)+1:]); err != nil {
		f.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add(v1gz.Bytes())
	f.Add([]byte{})
	f.Add([]byte("WTR1"))
	f.Add([]byte{'W', 'T', 'R', '1', 0x00, 0x01})
	f.Add([]byte{'W', 'T', 'R', '1', 0x01, 0x1f, 0x8b})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Read(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrTruncated) &&
				!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Anything that decodes must survive structural validation being
		// called (it may legitimately fail on semantic grounds) and must
		// re-encode without panicking.
		_ = dec.Validate()
		var buf bytes.Buffer
		if err := dec.Write(&buf, false); err != nil {
			t.Fatalf("re-encoding decoded trace: %v", err)
		}
	})
}
