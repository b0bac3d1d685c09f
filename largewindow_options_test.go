package largewindow

import (
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestEntryPointsRefuseIgnoredOptions: every With* constructor, alone and
// in the combinations where it would be ignored, is accepted or refused by
// SimulateContext, the one entry point that takes options (ExploreContext
// takes an ExploreOptions, so passing it one does not compile). A refused
// call names the option, returns before anything runs, and writes nothing
// to the telemetry writer it carries, which a run would write to.
func TestEntryPointsRefuseIgnoredOptions(t *testing.T) {
	ctx := context.Background()
	prog := mustProgram(t, "treeadd", ScaleTest)
	cp, err := FastForward(prog, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseSamplingPlan("n=2,len=500")
	if err != nil {
		t.Fatal(err)
	}
	w, err := ParseWorkloadRef("treeadd")
	if err != nil {
		t.Fatal(err)
	}
	var tel bytes.Buffer
	// simulate is "" where SimulateContext accepts the options, else a
	// piece of the refusal's text.
	rows := []struct {
		ctor     string
		opts     []Option
		simulate string
	}{
		{"WithMaxInstr", []Option{WithMaxInstr(2_000)}, ""},
		{"WithMaxInstr", []Option{WithSampling(plan), WithMaxInstr(2_000)}, "WithMaxInstr"},
		{"WithMeasure", []Option{WithMeasure(2_000)}, ""},
		{"WithMeasure", []Option{WithSampling(plan), WithMeasure(2_000)}, "WithMeasure"},
		{"WithMeasure", []Option{WithMaxInstr(2_000), WithMeasure(3_000)}, "WithMaxInstr with WithMeasure"}, // the last used to win
		{"WithMaxCycles", []Option{WithMaxCycles(1_000_000)}, ""},
		{"WithMaxCycles", []Option{WithSampling(plan), WithMaxCycles(1_000_000)}, ""},
		{"WithSkip", []Option{WithSkip(1_000)}, ""},
		{"WithSkip", []Option{WithCheckpoint(cp), WithSkip(1_000)}, "WithSkip"},
		{"WithSkip", []Option{WithSampling(plan), WithSkip(1_000)}, "WithSkip"},
		{"WithCheckpoint", []Option{WithCheckpoint(cp)}, ""},
		{"WithCheckpoint", []Option{WithSampling(plan), WithCheckpoint(cp)}, "WithCheckpoint"},
		{"WithSampling", []Option{WithSampling(plan)}, ""},
		{"WithTelemetry", []Option{WithTelemetry(&tel, 100)}, ""},
		{"WithTelemetry", []Option{WithSampling(plan), WithTelemetry(&tel, 100)}, "WithTelemetry"},
		{"WithWorkload", []Option{WithWorkload(w, ScaleTest)}, ""},
	}
	covered := map[string]bool{}
	for _, row := range rows {
		covered[row.ctor] = true
		t.Run("SimulateContext/"+row.ctor, func(t *testing.T) {
			opts, p := row.opts, prog
			if row.simulate != "" {
				opts = append(opts[:len(opts):len(opts)], WithTelemetry(&tel, 100))
			}
			var o simOptions
			for _, opt := range opts {
				opt(&o)
			}
			if o.workload != nil { // the workload stands in for prog
				p = nil
			}
			tel.Reset()
			res, err := SimulateContext(ctx, BaseConfig(), p, opts...)
			if row.simulate == "" {
				if err != nil || res == nil {
					t.Errorf("refused: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), row.simulate) || res != nil {
				t.Errorf("err = %v, want a refusal naming %q and no result", err, row.simulate)
			}
			if tel.Len() != 0 {
				t.Errorf("a refused call wrote %d bytes of telemetry", tel.Len())
			}
		})
	}
	// The table names every exported With* constructor.
	f, err := parser.ParseFile(token.NewFileSet(), "largewindow.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "With") && !covered[fn.Name.Name] {
			t.Errorf("%s has no row in the table", fn.Name.Name)
		}
	}
}
