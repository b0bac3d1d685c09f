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
// each entry point. A refused call names the option, returns before
// anything runs, and writes nothing to a telemetry writer: refused
// SimulateContext calls carry one, which a run would write to.
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
	// simulate and explore are "" where the entry point accepts the
	// options, else a piece of the refusal's text.
	const sampled = "skips or samples" // the session's refusal
	rows := []struct {
		ctor              string
		opts              []Option
		simulate, explore string
	}{
		{"WithMaxInstr", []Option{WithMaxInstr(2_000)}, "", ""},
		{"WithMaxInstr", []Option{WithSampling(plan), WithMaxInstr(2_000)}, "WithMaxInstr", sampled},
		{"WithMeasure", []Option{WithMeasure(2_000)}, "", ""},
		{"WithMeasure", []Option{WithSampling(plan), WithMeasure(2_000)}, "WithMeasure", sampled},
		{"WithMaxCycles", []Option{WithMaxCycles(1_000_000)}, "", ""},
		{"WithMaxCycles", []Option{WithSampling(plan), WithMaxCycles(1_000_000)}, "", sampled},
		{"WithSkip", []Option{WithSkip(1_000)}, "", sampled},
		{"WithSkip", []Option{WithCheckpoint(cp), WithSkip(1_000)}, "WithSkip", "WithCheckpoint"},
		{"WithSkip", []Option{WithSampling(plan), WithSkip(1_000)}, "WithSkip", sampled},
		{"WithCheckpoint", []Option{WithCheckpoint(cp)}, "", "WithCheckpoint"},
		{"WithCheckpoint", []Option{WithSampling(plan), WithCheckpoint(cp)}, "WithCheckpoint", "WithCheckpoint"},
		{"WithSampling", []Option{WithSampling(plan)}, "", sampled},
		{"WithTelemetry", []Option{WithTelemetry(&tel, 100)}, "", "WithTelemetry"},
		{"WithTelemetry", []Option{WithSampling(plan), WithTelemetry(&tel, 100)}, "WithTelemetry", "WithTelemetry"},
		{"WithWorkload", []Option{WithWorkload(w, ScaleTest)}, "", "WithWorkload"},
		{"WithWorkloadScale", []Option{WithWorkloadScale(ScaleTest)}, "", ""},
		{"WithWorkloadScale", []Option{WithWorkloadScale(ScaleRun), WithMaxInstr(2_000)}, "WithWorkloadScale", ""},
		{"WithWorkloadScale", []Option{WithWorkload(w, ScaleTest), WithWorkloadScale(ScaleRun), WithMaxInstr(2_000)}, "", "WithWorkload"},
		{"WithModelPrune", []Option{WithModelPrune(1, 0.5)}, "WithModelPrune", ""},
		{"WithExploreSeed", []Option{WithExploreSeed(3)}, "WithExploreSeed", ""},
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
			checkRefusal(t, res == nil, err, row.simulate, tel.Len())
		})
		t.Run("ExploreContext/"+row.ctor, func(t *testing.T) {
			tel.Reset()
			rep, err := ExploreContext(ctx, []Config{BaseConfig()}, []string{"treeadd"}, row.opts...)
			checkRefusal(t, rep == nil, err, row.explore, tel.Len())
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

// checkRefusal: an empty refusal means the call must succeed; otherwise
// it must fail with an error containing refusal, return no result and
// have written no telemetry.
func checkRefusal(t *testing.T, noResult bool, err error, refusal string, telemetry int) {
	t.Helper()
	if refusal == "" {
		if err != nil || noResult {
			t.Errorf("refused: %v", err)
		}
		return
	}
	if err == nil || !strings.Contains(err.Error(), refusal) || !noResult {
		t.Errorf("err = %v, want a refusal naming %q and no result", err, refusal)
	}
	if telemetry != 0 {
		t.Errorf("a refused call wrote %d bytes of telemetry", telemetry)
	}
}
