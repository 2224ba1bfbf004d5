package ensembler

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported identifiers in internal/ that no
// non-test file uses but that stay on purpose. Keys are "pkg.Name" for a
// function, type, var or const, "pkg.Type.Method" for a method and "pkg.*"
// for a whole package; each value says why the names stay. An exact entry
// that is used again, or an entry that names nothing declared, fails
// TestNoTestOnlySurface, so the list cannot go stale.
var surfaceAllowlist = map[string]string{
	"commtest.*": "test-support package by design: the comm, shard and " +
		"chaos suites of several packages share its fleet harness, " +
		"references and leak check, and no program imports it",
	"attack.RMLE": "the optimization-based inversion baseline; " +
		"TestGoldenTrainingBits pins input gradients through it, and " +
		"whether it becomes a red-team strategy or goes is ROADMAP item 9's call",
	"comm.DecodeWireStream": "the wiretap adversary's view of one connection: " +
		"shard's privacy tests invert what it recovers from a captured stream, " +
		"so it lives beside the codec it must mirror",
	"nn.NewFlatten": "comm's malformed-request tests need a compiled body " +
		"that panics partway through a pass, after earlier layers drew " +
		"scratch, and a Flatten→Linear boundary is that body",
	"registry.Store.Quarantined": "the crash-consistency tests (registry " +
		"faults, the commtest chaos storm) check through it that a torn " +
		"publish was swept aside and never served",
	"tensor.FromSlice": "literal tensors for the tests of six packages",
	"trace.Record.StageDur": "shard's end-to-end trace test checks through it " +
		"that a retained record attributes time to every stage",
}

// implicitMethod reports whether the standard library calls a method of
// this name through an interface the scanned code never names:
// fmt.Stringer, error, errors.Unwrap, http.Handler, the encoding
// marshalers.
func implicitMethod(name string) bool {
	switch name {
	case "String", "Error", "Unwrap", "ServeHTTP":
		return true
	}
	return strings.HasPrefix(name, "Marshal") || strings.HasPrefix(name, "Unmarshal")
}

// surfaceDecl is one exported top-level name of an internal package.
type surfaceDecl struct {
	key    string // "pkg.Name" or "pkg.Type.Method"
	pkg    string // import path of the declaring package
	name   string // the identifier
	method bool
	pos    token.Position
}

// TestNoTestOnlySurface fails when an exported function, type, var, const or
// method in internal/ is named by no non-test file in internal/, cmd/,
// examples/ or bench/. Such a name is behaviour that no program runs: it
// is either deleted, or its test-only reference moves into the _test.go
// file that needs it, or it goes on surfaceAllowlist with a reason.
//
// The scan is by name, using go/parser and go/ast only. A function, type,
// var or const counts as used when a non-test file names it as pkg.Name
// from another package, or as Name inside its own package outside its own
// declaration (a type's own methods do not count). A method counts as used
// when any non-test selector or any interface names it, or when the
// standard library calls it implicitly (implicitMethod).
func TestNoTestOnlySurface(t *testing.T) {
	var decls []surfaceDecl
	used := map[string]bool{}        // "importpath.Name"
	usedMethods := map[string]bool{} // method name
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkgPath := "ensembler/" + filepath.ToSlash(filepath.Dir(path))
			if root == "internal" {
				decls = append(decls, exportedDecls(fset, f, pkgPath)...)
			}
			collectUses(f, pkgPath, used, usedMethods)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found: run from the repository root")
	}

	declared := map[string]bool{}
	var dead []string
	for _, d := range decls {
		declared[d.key] = true
		declared[pkgOf(d.key)+".*"] = true
		live := used[d.pkg+"."+d.name]
		if d.method {
			live = usedMethods[d.name] || implicitMethod(d.name)
		}
		_, exact := surfaceAllowlist[d.key]
		_, whole := surfaceAllowlist[pkgOf(d.key)+".*"]
		switch {
		case !live && !exact && !whole:
			dead = append(dead, d.key+" ("+d.pos.String()+")")
		case live && exact:
			t.Errorf("%s is on surfaceAllowlist but a non-test file now uses it: drop the entry", d.key)
		}
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("exported but used only by tests (delete it, move it into a _test.go file, or allowlist it with a reason): %s", k)
	}
	for k, reason := range surfaceAllowlist {
		if !declared[k] {
			t.Errorf("surfaceAllowlist entry %s names nothing declared: drop it", k)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("surfaceAllowlist entry %s gives no reason", k)
		}
	}
}

// pkgOf returns the package name a declaration key starts with.
func pkgOf(key string) string { return key[:strings.IndexByte(key, '.')] }

// exportedDecls lists f's exported top-level names and exported methods.
func exportedDecls(fset *token.FileSet, f *ast.File, pkgPath string) []surfaceDecl {
	pkg := f.Name.Name
	var out []surfaceDecl
	add := func(id *ast.Ident, key string, method bool) {
		if id.IsExported() {
			out = append(out, surfaceDecl{key: key, pkg: pkgPath, name: id.Name, method: method, pos: fset.Position(id.Pos())})
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, pkg+"."+d.Name.Name, false)
			} else if recv := recvTypeName(d.Recv.List[0].Type); ast.IsExported(recv) {
				// A method of an unexported type is reachable only through
				// an interface, which the scan already counts as a use.
				add(d.Name, pkg+"."+recv+"."+d.Name.Name, true)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, pkg+"."+s.Name.Name, false)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, pkg+"."+id.Name, false)
					}
				}
			}
		}
	}
	return out
}

// recvTypeName returns the type name of a method receiver such as *T or T[E].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// collectUses records every name f uses: pkg.Name selectors on its imports,
// bare identifiers as names of its own package, every other selector as a
// possible method use, and every method an interface type declares. Uses of
// a declaration inside that declaration (recursion, a type's own methods)
// do not count.
func collectUses(f *ast.File, pkgPath string, used, usedMethods map[string]bool) {
	imports := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = path
	}
	// Each function and each spec of a declaration block is its own unit,
	// so a type block's members still count as using one another.
	var units []ast.Node
	for _, decl := range f.Decls {
		if d, ok := decl.(*ast.GenDecl); ok {
			for _, spec := range d.Specs {
				units = append(units, spec)
			}
		} else {
			units = append(units, decl)
		}
	}
	for _, unit := range units {
		self := map[string]bool{} // names whose uses inside unit do not count
		skip := map[*ast.Ident]bool{}
		switch d := unit.(type) {
		case *ast.FuncDecl:
			skip[d.Name] = true
			if d.Recv == nil {
				self[d.Name.Name] = true
			} else {
				self[recvTypeName(d.Recv.List[0].Type)] = true
			}
		case *ast.TypeSpec:
			self[d.Name.Name] = true
		case *ast.ValueSpec:
			for _, id := range d.Names {
				skip[id] = true
			}
		}
		ast.Inspect(unit, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if path, ok := imports[id.Name]; ok {
						used[path+"."+x.Sel.Name] = true
						return false
					}
				}
				usedMethods[x.Sel.Name] = true
				skip[x.Sel] = true
			case *ast.InterfaceType:
				for _, m := range x.Methods.List {
					for _, id := range m.Names {
						usedMethods[id.Name] = true
					}
				}
			case *ast.Field: // struct fields, parameters, results
				for _, id := range x.Names {
					skip[id] = true
				}
			case *ast.Ident:
				if !skip[x] && !self[x.Name] {
					used[pkgPath+"."+x.Name] = true
				}
			}
			return true
		})
	}
}
