// Package audit holds the removal audit: one test that type-checks the
// whole module and fails on names nothing binds. It has no production
// files; allow.txt carries the justified exceptions.
package audit

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// A sym is one audited declaration: a package-level func, type, const or
// var, a method (concrete or interface), or a named struct field.
type sym struct {
	obj   types.Object
	id    *ast.Ident
	dir   string // declaring package directory
	owner string // receiver, struct or interface type name; "" at package level
	label string // dir.Name or dir.Owner.Name, the spelling allow.txt uses

	ownProd, extProd, tests int // uses by where they are
	reads                   int // fields: production uses that are not plain stores
	sets                    int // fields: production stores, keyed literals, &x.f
}

func (s *sym) field() bool { v, ok := s.obj.(*types.Var); return ok && v.IsField() }

// An entry is one line of allow.txt.
type entry struct {
	line                 int
	kind, target, reason string
	hits                 int
}

const allowFile = "allow.txt"

func readAllow(t *testing.T) []*entry {
	var out []*entry
	for _, l := range readList(t, allowFile, 2) {
		out = append(out, &entry{line: l.line, kind: l.words[0], target: l.words[1], reason: l.reason})
	}
	return out
}

// A listLine is one entry of one of the audit's lists.
type listLine struct {
	line   int
	words  []string
	reason string
}

// readList reads allow.txt or gates.txt: one entry per line, n words and
// then a reason; blank lines and # comments are skipped. An entry without
// its reason fails the test, naming file:line.
func readList(t *testing.T, file string, n int) []listLine {
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []listLine
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		words := strings.Fields(text)
		for len(words) < n {
			words = append(words, "")
		}
		reason := strings.Join(words[n:], " ")
		if reason == "" {
			t.Errorf("%s:%d: entry %q has no reason", file, line, text)
		}
		out = append(out, listLine{line, words[:n], reason})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAudit is the removal audit (DESIGN.md §5.2). Five rules share one
// type-check of the module:
//
//	(a) an exported func, method, type, const or var under internal/ that
//	    no non-test file outside its package uses — reported as one count
//	    per package against a ceiling that may only fall;
//	(b) a package-level symbol, method or struct field with no production
//	    use at all, or a field production code only stores to;
//	(c) an exported field of an exported struct type that production
//	    code reads and no non-test path sets;
//	(d) a range over a map whose body writes to an output, accumulates
//	    into a float, or collects into a slice that is then ordered by a
//	    caller-written comparison;
//	(e) a gates.txt entry that names no test or fuzz target, and a fuzz
//	    target gates.txt does not list (gates_test.go).
//
// allow.txt lists the exceptions to (a)-(d), one reason each; an entry
// that exempts nothing fails too.
func TestAudit(t *testing.T) {
	start := time.Now()
	m, err := load()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("type-checked %d packages in %.1fs", len(m.prod), time.Since(start).Seconds())
	a := &auditor{t: t, m: m, allow: readAllow(t), ifaces: map[string]*types.Interface{}}
	a.collect()
	a.ruleAB()
	a.ruleC()
	a.ruleD()
	a.ruleE()
	for _, e := range a.allow {
		if e.hits == 0 {
			t.Errorf("%s:%d: stale entry %q %q: it names nothing the audit would report", allowFile, e.line, e.kind, e.target)
		}
	}
}

type auditor struct {
	t      *testing.T
	m      *module
	allow  []*entry
	syms   []*sym
	ifaces map[string]*types.Interface // resolved iface targets; nil for a bad one, reported once
}

// allowed reports whether an entry of the given kind names target, and
// counts the hit.
func (a *auditor) allowed(kind, target string) bool {
	ok := false
	for _, e := range a.allow {
		if e.kind == kind && e.target == target {
			e.hits++
			ok = true
		}
	}
	return ok
}

// collect enumerates the audited declarations of every production file
// and classifies each use of each.
func (a *auditor) collect() {
	m := a.m
	for _, u := range m.prod {
		var ids []*ast.Ident
		for id, obj := range u.info.Defs {
			if obj != nil && id.Name != "_" {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i].Pos() < ids[j].Pos() })
		for _, id := range ids {
			s := &sym{obj: u.info.Defs[id], id: id, dir: u.dir}
			switch obj := s.obj.(type) {
			case *types.Func:
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					s.owner = a.ownerOf(id, recv)
				} else if obj.Name() == "main" || obj.Name() == "init" {
					continue
				}
			case *types.Var:
				if obj.IsField() {
					if obj.Embedded() {
						continue // reached through promotion, which records no use
					}
					s.owner = a.ownerOf(id, nil)
				} else if obj.Parent() != u.pkg.Scope() {
					continue
				}
			case *types.TypeName, *types.Const:
				if obj.Parent() != u.pkg.Scope() {
					continue
				}
			default:
				continue
			}
			s.label = s.dir + "." + s.obj.Name()
			if s.owner != "" {
				s.label = s.dir + "." + s.owner + "." + s.obj.Name()
			}
			a.syms = append(a.syms, s)
		}
	}
	for _, s := range a.syms {
		own := a.declSpan(s)
		for _, u := range m.uses[s.obj.Pos()] {
			switch {
			case own != nil && own.Pos() <= u.id.Pos() && u.id.Pos() < own.End():
				// a declaration's use of itself (recursion, a linked type)
			case u.test:
				s.tests++
			default:
				if u.in.dir == s.dir {
					s.ownProd++
				} else {
					s.extProd++
				}
				if s.field() {
					switch a.fieldUse(u) {
					case store:
						s.sets++
					case address:
						s.sets++
						s.reads++
					default:
						s.reads++
					}
				}
			}
		}
	}
}

// ownerOf names the type a method or field belongs to: the receiver's
// named type, or the enclosing type declaration of a field or interface
// method ("struct" for a literal struct type outside any declaration).
func (a *auditor) ownerOf(id *ast.Ident, recv *types.Var) string {
	if recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name()
		}
	}
	for n := ast.Node(id); n != nil; n = a.m.parents[n] {
		if ts, ok := n.(*ast.TypeSpec); ok {
			return ts.Name.Name
		}
	}
	return "struct"
}

// declSpan is the declaration whose own uses of the symbol do not count.
func (a *auditor) declSpan(s *sym) ast.Node {
	if s.field() {
		return nil
	}
	for n := a.m.parents[s.id]; n != nil; n = a.m.parents[n] {
		switch n.(type) {
		case *ast.FuncDecl, *ast.TypeSpec:
			return n
		case *ast.File:
			return nil
		}
	}
	return nil
}

type fieldUse int

const (
	read fieldUse = iota
	store
	address
)

// fieldUse classifies one production use of a field. A store is a keyed
// literal element, x.f++, or the left side of any assignment, reached
// directly (x.f = v, x.f += v), through an index (x.f[i] = v) or through
// a struct held by value (x.f.g = v); everything else reads, and &x.f
// does both.
func (a *auditor) fieldUse(u use) fieldUse {
	p := a.m.parents
	var e ast.Expr = u.id
	if kv, ok := p[u.id].(*ast.KeyValueExpr); ok && kv.Key == u.id {
		if _, ok := p[kv].(*ast.CompositeLit); ok {
			return store
		}
	}
	if sel, ok := p[u.id].(*ast.SelectorExpr); ok && sel.Sel == u.id {
		e = sel
	}
	for {
		switch n := p[e].(type) {
		case *ast.ParenExpr:
			e = n
			continue
		case *ast.IndexExpr:
			if n.X == e {
				e = n
				continue
			}
		case *ast.SelectorExpr:
			if _, byValue := u.in.info.Types[e].Type.Underlying().(*types.Struct); byValue && n.X == e {
				e = n
				continue
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				return address
			}
		case *ast.IncDecStmt:
			return store
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if l == e {
					return store
				}
			}
		}
		return read
	}
}

func exported(s *sym) bool {
	return s.obj.Exported() && (s.owner == "" || ast.IsExported(s.owner) || s.owner == "struct")
}

// exempt reports whether a symbol is outside rules (a) and (b): the
// module's public API, a listed test-support package or file, a method
// reached through a listed interface, or a member of a type the facade
// aliases.
func (a *auditor) exempt(s *sym) bool {
	if s.dir == "." && exported(s) {
		return true // importable from outside the module
	}
	file := strings.SplitN(a.m.rel(s.obj.Pos()), ":", 2)[0]
	if a.allowed("pkg", s.dir) || a.allowed("file", file) {
		return true
	}
	of := s.owner // the type an exported member or constant belongs to
	if c, ok := s.obj.(*types.Const); ok {
		if n, ok := c.Type().(*types.Named); ok && n.Obj().Pkg() == c.Pkg() {
			of = n.Obj().Name()
		}
	}
	if of != "" && s.obj.Exported() && a.allowed("api", s.dir+"."+of) {
		return true
	}
	if f, ok := s.obj.(*types.Func); ok && s.owner != "" {
		for _, e := range a.allow {
			if e.kind == "iface" && a.satisfies(f, e.target) {
				e.hits++
				return true
			}
		}
	}
	return false
}

// satisfies reports whether f is a method of a concrete type that
// implements the named interface and is one of that interface's methods.
func (a *auditor) satisfies(f *types.Func, name string) bool {
	iface := a.lookupInterface(name)
	if iface == nil {
		return false
	}
	recv := f.Type().(*types.Signature).Recv().Type()
	if types.IsInterface(recv) {
		return false
	}
	if _, ok := recv.(*types.Pointer); !ok {
		recv = types.NewPointer(recv)
	}
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == f.Name() {
			return types.Implements(recv, iface)
		}
	}
	return false
}

// lookupInterface resolves "error", "fmt.Stringer" or
// "internal/emu.WarmSink" to its interface type.
func (a *auditor) lookupInterface(name string) *types.Interface {
	if iface, ok := a.ifaces[name]; ok {
		return iface
	}
	iface := a.resolveInterface(name)
	if iface == nil {
		a.t.Errorf("%s: iface %s does not name an interface", allowFile, name)
	}
	a.ifaces[name] = iface
	return iface
}

func (a *auditor) resolveInterface(name string) *types.Interface {
	var obj types.Object
	if i := strings.LastIndex(name, "."); i < 0 {
		obj = types.Universe.Lookup(name)
	} else {
		path := name[:i]
		if _, ok := a.m.byPath[a.m.path+"/"+path]; ok {
			path = a.m.path + "/" + path
		}
		pkg, err := a.m.Import(path)
		if err != nil {
			return nil
		}
		obj = pkg.Scope().Lookup(name[i+1:])
	}
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// ruleAB reports unused symbols by name and counts, per package under
// internal/, the exported names only their own package uses.
func (a *auditor) ruleAB() {
	inward := map[string][]*sym{}
	for _, s := range a.syms {
		unused := s.ownProd+s.extProd == 0
		writeOnly := s.field() && !unused && s.reads == 0
		inside := !unused && s.extProd == 0 && exported(s) && !s.field() && strings.HasPrefix(s.dir, "internal/")
		if !unused && !writeOnly && !inside {
			continue
		}
		if s.field() && a.tagged(s) {
			continue // an encoder reads and writes it by reflection
		}
		if a.exempt(s) {
			continue
		}
		if inside {
			inward[s.dir] = append(inward[s.dir], s)
			continue
		}
		if a.allowed("b", s.label) {
			continue
		}
		what := "has no production use"
		if writeOnly {
			what = "is stored to and never read in production"
		}
		if s.tests > 0 {
			what += fmt.Sprintf(" (%d in tests)", s.tests)
		}
		a.t.Errorf("%s: (b) %s %s", a.m.rel(s.obj.Pos()), s.label, what)
	}
	for _, u := range a.m.prod {
		if !strings.HasPrefix(u.dir, "internal/") {
			continue
		}
		got, want := len(inward[u.dir]), 0
		for _, e := range a.allow {
			if e.kind == "ceiling" && e.target == u.dir {
				e.hits++
				want, _ = strconv.Atoi(e.reason)
			}
		}
		switch {
		case got > want:
			a.t.Errorf("(a) %s exports %d names that only it uses, over its ceiling of %d; unexport or delete the new one:", u.dir, got, want)
			for _, s := range inward[u.dir] {
				a.t.Errorf("\t%s: %s", a.m.rel(s.obj.Pos()), s.label)
			}
		case got < want:
			a.t.Errorf("(a) %s exports %d names that only it uses, under its ceiling of %d: lower the ceiling in %s", u.dir, got, want, allowFile)
		}
	}
}

// tagged reports whether a field carries a struct tag, as the fields
// encoding/json reaches by reflection do.
func (a *auditor) tagged(s *sym) bool {
	f, ok := a.m.parents[s.id].(*ast.Field)
	return ok && f.Tag != nil
}

// ruleC reports exported fields of exported structs that production
// code consults and never sets: an option nothing can turn on, whatever
// its struct is called. sync/atomic fields are set through their
// methods, which read as uses; a pkg exemption covers the package.
func (a *auditor) ruleC() {
	// An unkeyed literal sets every field of its struct.
	unkeyed := map[token.Pos]bool{}
	for _, u := range a.m.prod {
		for _, f := range u.files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || len(lit.Elts) == 0 {
					return true
				}
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
					return true
				}
				if st, ok := u.info.Types[lit].Type.Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						unkeyed[st.Field(i).Pos()] = true
					}
				}
				return true
			})
		}
	}
	for _, s := range a.syms {
		if !s.field() || !s.obj.Exported() || !ast.IsExported(s.owner) || atomicField(s) ||
			s.reads == 0 || s.sets > 0 || unkeyed[s.obj.Pos()] {
			continue
		}
		if a.allowed("pkg", s.dir) || a.allowed("c", s.label) {
			continue
		}
		a.t.Errorf("%s: (c) %s is read in production and no non-test path sets it", a.m.rel(s.obj.Pos()), s.label)
	}
}

// atomicField reports whether a field's type comes from sync/atomic.
func atomicField(s *sym) bool {
	n, ok := s.obj.Type().(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}

var outputCall = regexp.MustCompile(`^(Fprint|Print|Write|Encode)`)

// ruleD reports map ranges whose result depends on iteration order.
func (a *auditor) ruleD() {
	for _, u := range a.m.prod {
		for _, f := range u.files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, ok := u.info.Types[rs.X].Type.Underlying().(*types.Map); !ok {
					return true
				}
				why := a.orderDependent(u, rs)
				if why == "" {
					return true
				}
				fn := a.enclosingFunc(u, rs)
				if a.allowed("d", fn) {
					return true
				}
				a.t.Errorf("%s: (d) range over a map in %s %s", a.m.rel(rs.Pos()), fn, why)
				return true
			})
		}
	}
}

// orderDependent says why the body of a map range depends on iteration
// order, or "" when it shows no sign of it.
func (a *auditor) orderDependent(u *unit, rs *ast.RangeStmt) (why string) {
	key, _ := rs.Key.(*ast.Ident)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && outputCall.MatchString(sel.Sel.Name) {
				why = "writes to an output (" + sel.Sel.Name + ")"
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 {
				return true
			}
			lhs := n.Lhs[0]
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN || n.Tok == token.MUL_ASSIGN || n.Tok == token.QUO_ASSIGN {
				b, ok := u.info.Types[lhs].Type.Underlying().(*types.Basic)
				if !ok || b.Info()&types.IsFloat == 0 {
					return true
				}
				if ix, ok := lhs.(*ast.IndexExpr); ok && key != nil {
					if id, ok := ix.Index.(*ast.Ident); ok && id.Name == key.Name {
						return true // one element per key: no order to depend on
					}
				}
				why = "accumulates into a float (" + types.ExprString(lhs) + ")"
			}
			if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
					if by := a.sortedByFunc(rs, lhs); by != "" {
						why = "collects into " + types.ExprString(lhs) + ", which " + by + " then orders by a caller-written comparison"
					}
				}
			}
		}
		return true
	})
	return why
}

// sortedByFunc names the sort-with-comparison call, in the function
// enclosing rs, that takes slice as its first argument.
func (a *auditor) sortedByFunc(rs *ast.RangeStmt, slice ast.Expr) (by string) {
	fn := a.funcAround(rs)
	if fn == nil {
		return ""
	}
	want := types.ExprString(slice)
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 || types.ExprString(call.Args[0]) != want {
			return true
		}
		switch name := types.ExprString(call.Fun); name {
		case "sort.Slice", "sort.SliceStable", "slices.SortFunc", "slices.SortStableFunc":
			by = name
		}
		return true
	})
	return by
}

// funcAround is the function declaration enclosing n, if any.
func (a *auditor) funcAround(n ast.Node) *ast.FuncDecl {
	for ; n != nil; n = a.m.parents[n] {
		if fd, ok := n.(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// enclosingFunc labels the function declaration around n the way
// allow.txt spells it: dir.Func or dir.Type.Method.
func (a *auditor) enclosingFunc(u *unit, n ast.Node) string {
	fd := a.funcAround(n)
	if fd == nil {
		return u.dir
	}
	name := fd.Name.Name
	if f, ok := u.info.Defs[fd.Name].(*types.Func); ok && fd.Recv != nil {
		name = a.ownerOf(fd.Name, f.Type().(*types.Signature).Recv()) + "." + name
	}
	return u.dir + "." + name
}
