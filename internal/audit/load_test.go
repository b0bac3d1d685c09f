package audit

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// A unit is one type-checked set of files: a package's production files,
// those plus its in-package tests, or its external test package.
type unit struct {
	dir   string // slash-separated, relative to the module root; "." is the root
	path  string // import path
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// A use is one identifier that resolves to a declared object.
type use struct {
	id   *ast.Ident
	in   *unit // the unit that checked the using file: its production unit, unless it is a test
	test bool  // the using file is a _test.go file
}

// module is the whole tree, parsed and type-checked once. Objects are
// keyed by the position of their declaring identifier: a production file
// is checked twice (alone, and again beside its package's tests) and the
// two passes create distinct objects at the same position.
type module struct {
	root, path string
	fset       *token.FileSet
	prod       []*unit // production units, sorted by dir
	decls      map[token.Pos]types.Object
	uses       map[token.Pos][]use
	parents    map[ast.Node]ast.Node // for every node of every production file

	std    types.Importer
	byPath map[string]*unit
	errs   []error
}

// Import serves the module's own packages from their production units
// and everything else — the standard library — from source.
func (m *module) Import(path string) (*types.Package, error) {
	if u, ok := m.byPath[path]; ok {
		m.check(u)
		return u.pkg, nil
	}
	return m.std.Import(path)
}

func (m *module) check(u *unit) {
	if u.pkg != nil {
		return
	}
	u.info = &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: m, Error: func(err error) { m.errs = append(m.errs, err) }}
	u.pkg, _ = conf.Check(u.path, m.fset, u.files, u.info)
}

func (m *module) isTest(p token.Pos) bool {
	return strings.HasSuffix(m.fset.File(p).Name(), "_test.go")
}

// rel is a position as file:line relative to the module root.
func (m *module) rel(p token.Pos) string {
	pos := m.fset.Position(p)
	name, _ := filepath.Rel(m.root, pos.Filename)
	return fmt.Sprintf("%s:%d", filepath.ToSlash(name), pos.Line)
}

// load parses every package of the module containing the working
// directory and type-checks each once per unit.
func load() (*module, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		if filepath.Dir(root) == root {
			return nil, fmt.Errorf("audit: no go.mod above the working directory")
		}
		root = filepath.Dir(root)
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(string(mod))
	if len(fields) < 2 || fields[0] != "module" {
		return nil, fmt.Errorf("audit: go.mod does not start with a module line")
	}
	// The source importer reads build.Default; without cgo it takes the
	// pure-Go net and os/user and never shells out to the cgo tool.
	build.Default.CgoEnabled = false
	m := &module{
		root: root, path: fields[1], fset: token.NewFileSet(),
		decls: map[token.Pos]types.Object{}, uses: map[token.Pos][]use{},
		parents: map[ast.Node]ast.Node{}, byPath: map[string]*unit{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)

	var tests []*unit
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); dir != root && (n == "testdata" || n[0] == '.' || n[0] == '_') {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, empty := err.(*build.NoGoError); empty {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		rel = filepath.ToSlash(rel)
		path := m.path
		if rel != "." {
			path += "/" + rel
		}
		var parsed [3][]*ast.File // production, in-package tests, external tests
		for i, names := range [][]string{bp.GoFiles, bp.TestGoFiles, bp.XTestGoFiles} {
			for _, n := range names {
				f, err := parser.ParseFile(m.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				parsed[i] = append(parsed[i], f)
			}
		}
		prod, in, ext := parsed[0], parsed[1], parsed[2]
		if len(prod) > 0 {
			u := &unit{dir: rel, path: path, files: prod}
			m.prod = append(m.prod, u)
			m.byPath[path] = u
		}
		if len(in) > 0 {
			tests = append(tests, &unit{dir: rel, path: path, files: append(prod[:len(prod):len(prod)], in...)})
		}
		if len(ext) > 0 {
			tests = append(tests, &unit{dir: rel, path: path + "_test", files: ext})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, u := range m.prod {
		m.check(u)
	}
	// An external test package is checked against its package's production
	// unit, as every other importer is: this tree has no export_test.go,
	// and one would fail here as an undefined name, not pass unseen.
	for _, u := range tests {
		m.check(u)
	}
	if len(m.errs) > 0 {
		return nil, fmt.Errorf("audit: %d type errors, first: %v", len(m.errs), m.errs[0])
	}

	for _, u := range m.prod {
		for id, obj := range u.info.Defs {
			if obj != nil {
				m.decls[id.Pos()] = obj
			}
		}
		for _, f := range u.files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if len(stack) > 0 {
					m.parents[n] = stack[len(stack)-1]
				}
				stack = append(stack, n)
				return true
			})
		}
	}
	seen := map[*ast.Ident]bool{} // a production file's idents appear in two units
	for _, u := range append(m.prod[:len(m.prod):len(m.prod)], tests...) {
		for id, obj := range u.info.Uses {
			if seen[id] || m.decls[obj.Pos()] == nil {
				continue
			}
			seen[id] = true
			m.uses[obj.Pos()] = append(m.uses[obj.Pos()], use{id, u, m.isTest(id.Pos())})
		}
	}
	return m, nil
}
