package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"largewindow/internal/golden"
	"largewindow/internal/workload"
)

// TestContainerBytesGolden pins the .wtr container bytes and the
// trace:sha256: workload identity of two full-halt recordings, in the
// plain and the gzip spelling. The values were recorded from the commit
// before the paged program image replaced the Data map; campaign cell IDs
// embed the identity, so a moved byte re-keys every cached trace cell.
// (The .gz container digest also pins compress/gzip's output for the
// toolchain in go.mod; the identity is over the uncompressed body.)
func TestContainerBytesGolden(t *testing.T) {
	got := map[string]string{}
	for _, bench := range []string{"gzip", "art"} {
		src, err := workload.ParseRef("bench:" + bench)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Record(src, workload.ScaleTest, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, gz := range []bool{false, true} {
			name := bench + ".wtr"
			if gz {
				name += ".gz"
			}
			var buf bytes.Buffer
			if err := tr.Write(&buf, gz); err != nil {
				t.Fatal(err)
			}
			got[name+" container"] = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
			dec, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			got[name+" identity"] = dec.Identity()
		}
	}
	golden.Check(t, "testdata/container_bytes.golden",
		"<kernel>.wtr[.gz] container <sha256 of the file bytes> | identity <Trace.Identity()>, ScaleTest, recorded to halt.", got)
}
