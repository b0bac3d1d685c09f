// Package golden is the test helper behind the repo's recorded-digest
// files (testdata/*.golden): named values, one "<key> <value>" per line,
// recorded from a known-good commit and compared on every run. A
// host-speed or representation change must leave every line unchanged.
package golden

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Check compares got against the file at path, reporting every key whose
// value differs, is unrecorded, or is recorded but no longer produced.
//
// A missing file is recorded from got and the test fails once, so after a
// deliberate change: delete the file, run the test, re-run to verify.
func Check(t *testing.T, path, header string, got map[string]string) {
	t.Helper()
	want, err := read(path)
	if os.IsNotExist(err) {
		if err := write(path, header, got); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; recorded %d values, re-run to verify", path, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	for k, g := range got {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: nothing recorded in %s", k, path)
		} else if w != g {
			t.Errorf("%s: got %s, recorded %s", k, g, w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: recorded in %s but no longer produced", k, path)
		}
	}
}

func read(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[line[:i]] = line[i+1:]
	}
	return out, sc.Err()
}

func write(path, header string, got map[string]string) error {
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", header)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, got[k])
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// CheckText is Check for a whole rendered text (a report, a set of
// tables): got must equal the file at path byte for byte. A missing file
// is recorded from got and the test fails once, as with Check.
func CheckText(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s was missing; recorded it, re-run to verify", path)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("text differs from %s\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
