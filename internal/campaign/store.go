package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Store is the on-disk content-addressed result cache. Records live at
// <dir>/ca/<id[:2]>/<id>.json, fanned out by the leading ID byte so a
// full Figure-1-through-7 campaign (hundreds of cells) never piles one
// directory high. Writes are atomic (temp file + rename), so a campaign
// killed mid-write leaves either the previous record or none — never a
// torn file — and a concurrent reader sees only complete records.
//
// Store methods are safe for concurrent use: the filesystem provides the
// synchronization (rename atomicity), no process-level locking needed.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a result cache rooted at dir.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("campaign: store dir must be non-empty")
	}
	if err := os.MkdirAll(filepath.Join(dir, "ca"), 0o755); err != nil {
		return nil, fmt.Errorf("campaign: creating store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Path returns where the record for a cell ID lives (whether or not it
// exists yet).
func (s *Store) Path(id string) string {
	return filepath.Join(s.dir, "ca", id[:2], id+".json")
}

// Get loads the record for a cell ID. A missing entry returns (nil, nil);
// a corrupt or future-schema entry returns an error — callers treat it as
// a miss and recompute, overwriting the bad entry.
func (s *Store) Get(id string) (*Record, error) {
	data, err := os.ReadFile(s.Path(id))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: reading %s: %w", id, err)
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("campaign: decoding %s: %w", id, err)
	}
	if rec.CellID != "" && rec.CellID != id {
		return nil, fmt.Errorf("campaign: record %s names cell %s (corrupt cache?)", id, rec.CellID)
	}
	return &rec, nil
}

// Put persists a record under its cell ID, atomically.
func (s *Store) Put(rec *Record) error {
	if rec.CellID == "" {
		return fmt.Errorf("campaign: record without a cell ID")
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("campaign: encoding %s: %w", rec.CellID, err)
	}
	return s.PutEncoded(rec.CellID, data)
}

// PutEncoded is Put for a record the caller already holds as
// json.Marshal(rec): the file is byte-identical to the one Put writes
// (the compact encoding, indented). The service coordinator encodes a
// finished record once and gives the same bytes to the store and to
// every result it serves.
func (s *Store) PutEncoded(id string, compact []byte) error {
	var data bytes.Buffer
	data.Grow(2 * len(compact))
	if err := json.Indent(&data, compact, "", "  "); err != nil {
		return fmt.Errorf("campaign: encoding %s: %w", id, err)
	}
	data.WriteByte('\n')
	return writeAtomic(s.Path(id), id, data.Bytes())
}

// writeAtomic is the tier's one durable write: data goes to a temp
// sibling of path (".<id>.tmp*", which IDs skips) in path's directory,
// created if need be, and is renamed over it, so a process killed
// mid-write leaves either the previous file or none — never a torn one —
// and a concurrent reader sees only complete files.
func writeAtomic(path, id string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("campaign: creating directory for %s: %w", id, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+id+".tmp*")
	if err != nil {
		return fmt.Errorf("campaign: temp file for %s: %w", id, err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("campaign: writing %s: %w", id, werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: committing %s: %w", id, err)
	}
	return nil
}

// IDs lists every cell ID present in the store, sorted.
func (s *Store) IDs() ([]string, error) {
	var out []string
	root := filepath.Join(s.dir, "ca")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasSuffix(name, ".json") && !strings.HasPrefix(name, ".") {
			out = append(out, strings.TrimSuffix(name, ".json"))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: listing store: %w", err)
	}
	sort.Strings(out)
	return out, nil
}
