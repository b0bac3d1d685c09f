package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"largewindow/internal/emu"
	"largewindow/internal/flight"
	"largewindow/internal/workload"
)

// CheckpointKey names one functional fast-forward checkpoint. It is
// deliberately narrower than a Cell: architectural state depends only on
// what program ran and how far, never on the processor configuration
// measuring it — so every config cell of a campaign over the same
// (benchmark, scale, skip) shares one checkpoint and one functional pass.
type CheckpointKey struct {
	Bench string
	Scale workload.Scale
	Skip  uint64
	// Workload is the content identity of a non-registry workload
	// (Cell.WorkloadID); empty for builder kernels, which keeps
	// pre-Source checkpoint IDs — and the checkpoints already on disk —
	// valid. Two distinct traces that happen to share a display name must
	// not share architectural state.
	Workload string
}

// checkpointKeyWire is the canonical form hashed into a checkpoint ID.
type checkpointKeyWire struct {
	Bench    string `json:"bench"`
	Scale    string `json:"scale"`
	Skip     uint64 `json:"skip"`
	Workload string `json:"workload,omitempty"`
}

// ID returns the key's stable content-addressed identity.
func (k CheckpointKey) ID() string {
	data, err := json.Marshal(checkpointKeyWire{
		Bench:    k.Bench,
		Scale:    k.Scale.String(),
		Skip:     k.Skip,
		Workload: k.Workload,
	})
	if err != nil {
		panic(fmt.Sprintf("campaign: canonicalizing checkpoint key: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:idHexLen]
}

func (k CheckpointKey) String() string {
	return fmt.Sprintf("%s/%s+%d", k.Bench, k.Scale, k.Skip)
}

// Checkpoints is the shared checkpoint cache of a campaign: an in-memory
// single-flight map over an optional on-disk store. With a directory,
// checkpoints persist at <dir>/<id>.json (atomic temp+rename, like
// Records) and survive across processes; with dir == "", checkpoints are
// shared in memory for the life of one campaign only.
type Checkpoints struct {
	dir string
	log io.Writer

	slots flight.Memo[*emu.Checkpoint]

	built  atomic.Uint64 // functional passes executed
	reused atomic.Uint64 // Gets served without a functional pass
}

// NewCheckpoints opens a checkpoint cache. dir == "" keeps the cache
// memory-only; otherwise the directory is created when the first
// checkpoint persists, so a campaign that never skips leaves none behind
// (and one that cannot create it still shares checkpoints in memory,
// logging each failed persist). log (may be nil) receives corrupt-entry
// and persistence warnings. The error is always nil.
func NewCheckpoints(dir string, log io.Writer) (*Checkpoints, error) {
	return &Checkpoints{dir: dir, log: log}, nil
}

// Counts reports how many Gets built a checkpoint functionally and how
// many were served from the in-memory slot or disk.
func (c *Checkpoints) Counts() (built, reused uint64) {
	return c.built.Load(), c.reused.Load()
}

// Path returns where the checkpoint for an ID lives on disk ("" when the
// cache is memory-only).
func (c *Checkpoints) Path(id string) string {
	if c.dir == "" {
		return ""
	}
	return filepath.Join(c.dir, id+".json")
}

// Get resolves the checkpoint for a key, building it with build at most
// once per key per process (and at most once per key ever, when a
// directory is configured and the entry is intact): concurrent Gets for
// the same key single-flight onto one resolution. A corrupt or
// future-schema disk entry is rebuilt and overwritten.
func (c *Checkpoints) Get(key CheckpointKey, build func() (*emu.Checkpoint, error)) (*emu.Checkpoint, error) {
	id := key.ID()
	fromDisk := false
	cp, err, first := c.slots.Do(id, func() (cp *emu.Checkpoint, err error) {
		cp, fromDisk, err = c.resolve(id, key, build)
		return cp, err
	})
	if err == nil {
		if first && !fromDisk {
			c.built.Add(1)
		} else {
			c.reused.Add(1)
		}
	}
	return cp, err
}

// resolve loads the checkpoint from disk or builds it functionally,
// persisting fresh builds.
func (c *Checkpoints) resolve(id string, key CheckpointKey, build func() (*emu.Checkpoint, error)) (*emu.Checkpoint, bool, error) {
	if path := c.Path(id); path != "" {
		data, rerr := os.ReadFile(path)
		if rerr == nil {
			var cp emu.Checkpoint
			if derr := json.Unmarshal(data, &cp); derr == nil {
				return &cp, true, nil
			} else if c.log != nil {
				fmt.Fprintf(c.log, "  checkpoint %s (%s) unusable, rebuilding: %v\n", id, key, derr)
			}
		} else if !os.IsNotExist(rerr) && c.log != nil {
			fmt.Fprintf(c.log, "  checkpoint %s (%s) unreadable, rebuilding: %v\n", id, key, rerr)
		}
	}
	cp, err := build()
	if err != nil {
		return nil, false, err
	}
	if path := c.Path(id); path != "" {
		if perr := c.persist(path, id, cp); perr != nil && c.log != nil {
			fmt.Fprintf(c.log, "  persisting checkpoint %s (%s): %v\n", id, key, perr)
		}
	}
	return cp, false, nil
}

// persist encodes a checkpoint and commits it with writeAtomic, so a
// campaign killed mid-write leaves either the previous entry or none.
func (c *Checkpoints) persist(path, id string, cp *emu.Checkpoint) error {
	data, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	return writeAtomic(path, id, append(data, '\n'))
}
