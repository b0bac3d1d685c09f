package trace

import (
	"fmt"
	"sync"

	"largewindow/internal/isa"
	"largewindow/internal/workload"
)

// init registers the non-registry workload schemes, database/sql
// driver style: importing this package (largewindow and the harness do)
// makes "trace:path.wtr" and "synth:mlp=4,..." refs resolvable through
// workload.ParseRef.
func init() {
	workload.RegisterScheme("trace", func(path string) (workload.Source, error) {
		if path == "" {
			return nil, fmt.Errorf("trace ref needs a file path")
		}
		return &fileSource{path: path}, nil
	})
	workload.RegisterScheme("synth", func(spec string) (workload.Source, error) {
		s, err := ParseSynth(spec)
		if err != nil {
			return nil, err
		}
		return synthSource{spec: s}, nil
	})
}

// fileSource is the workload.Source over a `.wtr` trace file. The file
// is loaded lazily and at most once; Name/Suite/Identity force the
// load, so resolution errors surface on first use. Scale is ignored —
// a trace is fixed content.
type fileSource struct {
	path string

	once sync.Once
	tr   *Trace
	err  error
}

func (f *fileSource) load() (*Trace, error) {
	f.once.Do(func() { f.tr, f.err = ReadFile(f.path) })
	return f.tr, f.err
}

func (f *fileSource) Name() string {
	t, err := f.load()
	if err != nil {
		return f.path
	}
	return t.Name
}

func (f *fileSource) Suite() workload.Suite {
	t, err := f.load()
	if err != nil {
		return workload.SuiteExternal
	}
	if s, ok := workload.ParseSuite(t.Suite); ok {
		return s
	}
	return workload.SuiteExternal
}

func (f *fileSource) Ref() string { return "trace:" + f.path }

func (f *fileSource) Identity() string {
	t, err := f.load()
	if err != nil {
		// An unreadable trace has no content identity; return a ref-shaped
		// marker that can never equal a real digest, so identity checks
		// fail loudly instead of colliding.
		return "trace:unreadable:" + f.path
	}
	return t.Identity()
}

func (f *fileSource) Build(workload.Scale) (*isa.Program, error) {
	t, err := f.load()
	if err != nil {
		return nil, err
	}
	return t.Program(), nil
}

// synthSource is the workload.Source over a parameterized synthetic
// spec. Identity is the canonical spec string itself — the spec IS the
// content, no hashing needed — so any spelling of equal parameters
// shares cells.
type synthSource struct{ spec SynthSpec }

func (s synthSource) Name() string          { return s.spec.Name() }
func (s synthSource) Suite() workload.Suite { return workload.SuiteExternal }
func (s synthSource) Ref() string           { return "synth:" + s.spec.Canonical() }
func (s synthSource) Identity() string      { return "synth:" + s.spec.Canonical() }

func (s synthSource) Build(workload.Scale) (*isa.Program, error) {
	return s.spec.Build()
}
