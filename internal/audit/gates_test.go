package audit

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

const gatesFile = "gates.txt"

var gateKind = regexp.MustCompile(`^(test|fuzz|race[1-9][0-9]*)$`)

// A target is a func TestX(*testing.T) or FuzzX(*testing.F) declared in a
// _test.go file.
type target struct {
	dir, name string
}

// A fuzzDecl is a fuzz target and the file:line that declares it.
type fuzzDecl struct {
	target
	at string
}

// ruleE holds gates.txt to the suite: every entry names a target of its
// kind in its package, once, and every fuzz target of the module has an
// entry, since scripts/check.sh fuzzes only what the list names.
func (a *auditor) ruleE() {
	declared := map[target]string{} // "test" or "fuzz"
	var fuzzes []fuzzDecl
	for _, u := range a.m.tests {
		for _, f := range u.files {
			if !a.m.isTest(f.Pos()) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil {
					continue
				}
				kind := targetKind(u.info.Defs[fd.Name])
				if kind == "" {
					continue
				}
				tg := target{u.dir, fd.Name.Name}
				declared[tg] = kind
				if kind == "fuzz" {
					fuzzes = append(fuzzes, fuzzDecl{tg, a.m.rel(fd.Pos())})
				}
			}
		}
	}
	listed := map[target]int{}
	lastFuzz := 0
	for _, l := range readList(a.t, gatesFile, 3) {
		kind, tg := l.words[0], target{l.words[1], l.words[2]}
		if first, ok := listed[tg]; ok {
			a.t.Errorf("%s:%d: (e) %s %s is listed again (first at line %d)", gatesFile, l.line, tg.dir, tg.name, first)
			continue
		}
		listed[tg] = l.line
		want, param := "test", "T"
		switch {
		case !gateKind.MatchString(kind):
			a.t.Errorf("%s:%d: (e) kind %q is not test, fuzz or raceN", gatesFile, l.line, kind)
			continue
		case kind == "fuzz":
			want, param = "fuzz", "F"
			lastFuzz = l.line
		}
		if declared[tg] != want {
			a.t.Errorf("%s:%d: (e) %s gate %s: %s's _test.go files declare no func %s(*testing.%s)", gatesFile, l.line, kind, tg.name, tg.dir, tg.name, param)
		}
	}
	for _, fz := range fuzzes {
		if _, ok := listed[fz.target]; !ok {
			a.t.Errorf("%s:%d: (e) fuzz target %s %s (%s) has no entry: add `fuzz %s %s <reason>` with the fuzz gates, which end here",
				gatesFile, lastFuzz, fz.dir, fz.name, fz.at, fz.dir, fz.name)
		}
	}
}

// targetKind reports whether obj is a test ("test": TestX(*testing.T)) or
// a fuzz target ("fuzz": FuzzX(*testing.F)), or neither ("").
func targetKind(obj types.Object) string {
	f, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	sig := f.Type().(*types.Signature)
	if sig.Params().Len() != 1 || sig.Results().Len() != 0 || sig.TypeParams().Len() != 0 {
		return ""
	}
	param := types.TypeString(sig.Params().At(0).Type(), nil)
	switch {
	case strings.HasPrefix(f.Name(), "Test") && param == "*testing.T":
		return "test"
	case strings.HasPrefix(f.Name(), "Fuzz") && param == "*testing.F":
		return "fuzz"
	}
	return ""
}
