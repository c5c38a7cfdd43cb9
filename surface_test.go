package piccolo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The exported surface of internal/ (DESIGN.md §5 "Exported surface"): every
// exported func, method, const and var declared in a non-test file under
// internal/ must be read by some non-test file other than its own. Readers
// are all non-test files of the tree, cmd/, examples/, piccolo.go and the
// nested bench/ module included. The scan is by name: a package-level name
// is read where its package refers to it bare or an importer selects it
// through the package's import name; a method is read where any selector
// names it. testdata/surface_allow.txt lists the offenders kept on purpose,
// one "pkg.Name reason" line each; a line that no longer names an offender
// fails too, so the list only shrinks.

// stdlibMethods satisfy standard-library interfaces by name, so the standard
// library, not this tree, reads them. Len, Less and Swap count only on a type
// that declares all three (sort.Interface).
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "ServeHTTP": true,
}

type surfaceFile struct {
	dir        string
	test       bool
	imports    map[string]string // local name → import path
	idents     map[string]bool   // every identifier not a selector's name
	selectors  map[string]bool   // "X.Sel" for an identifier X, and ".Sel"
	syntax     *ast.File
	importPath string
}

// exportedSurface returns the exported identifiers under root/internal that
// no non-test file outside their own reads, sorted, as "pkg.Name" for
// package-level names and "pkg.Type.Method" for methods. module is the
// import path of root.
func exportedSurface(root, module string) ([]string, error) {
	var files []*surfaceFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		syntax, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		f := &surfaceFile{
			dir: rel, test: strings.HasSuffix(name, "_test.go"),
			imports: map[string]string{}, idents: map[string]bool{}, selectors: map[string]bool{},
			syntax: syntax, importPath: module + "/" + rel,
		}
		for _, imp := range syntax.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			local := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			f.imports[local] = p
		}
		sels := map[*ast.Ident]bool{}
		ast.Inspect(syntax, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels[n.Sel] = true
				f.selectors["."+n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					f.selectors[x.Name+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if !sels[n] {
					f.idents[n.Name] = true
				}
			}
			return true
		})
		files = append(files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// read reports whether a non-test file other than decl's reads name:
	// as a method (any selector), or as a package-level name.
	read := func(decl *surfaceFile, name string, method bool) bool {
		for _, f := range files {
			if f.test || f == decl {
				continue
			}
			switch {
			case method:
				if f.selectors["."+name] {
					return true
				}
			case f.dir == decl.dir:
				if f.idents[name] {
					return true
				}
			default:
				for local, p := range f.imports {
					if p == decl.importPath && f.selectors[local+"."+name] {
						return true
					}
				}
			}
		}
		return false
	}

	var out []string
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir+"/", "internal/") {
			continue
		}
		pkg := f.syntax.Name.Name
		methods := map[string]map[string]bool{} // receiver type → method names
		for _, d := range f.syntax.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				t := recvType(fd.Recv.List[0].Type)
				if methods[t] == nil {
					methods[t] = map[string]bool{}
				}
				methods[t][fd.Name.Name] = true
			}
		}
		for _, d := range f.syntax.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if !ast.IsExported(name) {
					continue
				}
				if d.Recv == nil {
					if !read(f, name, false) {
						out = append(out, pkg+"."+name)
					}
					continue
				}
				t := recvType(d.Recv.List[0].Type)
				if stdlibMethods[name] || sortMethod(name, methods[t]) {
					continue
				}
				if !read(f, name, true) {
					out = append(out, pkg+"."+t+"."+name)
				}
			case *ast.GenDecl:
				if d.Tok != token.CONST && d.Tok != token.VAR {
					continue
				}
				for _, s := range d.Specs {
					for _, id := range s.(*ast.ValueSpec).Names {
						if ast.IsExported(id.Name) && !read(f, id.Name, false) {
							out = append(out, pkg+"."+id.Name)
						}
					}
				}
			}
		}
	}
	slices.Sort(out)
	return out, nil
}

// recvType is the name of a method's receiver type: T for T, *T, T[P] and
// *T[P, Q].
func recvType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// sortMethod reports whether name is one of sort.Interface's methods on a
// type that declares all three.
func sortMethod(name string, declared map[string]bool) bool {
	return (name == "Len" || name == "Less" || name == "Swap") &&
		declared["Len"] && declared["Less"] && declared["Swap"]
}

// checkAllowlist compares offenders with an allowlist's text. It returns the
// offenders the list does not name, the list's lines that name no offender
// (stale), and its lines with no reason. Blank lines and lines starting with
// '#' are skipped.
func checkAllowlist(offenders []string, allow string) (unlisted, stale, bare []string) {
	listed := map[string]bool{}
	for _, line := range strings.Split(allow, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			bare = append(bare, name)
		}
		listed[name] = true
		if !slices.Contains(offenders, name) {
			stale = append(stale, name)
		}
	}
	for _, o := range offenders {
		if !listed[o] {
			unlisted = append(unlisted, o)
		}
	}
	return unlisted, stale, bare
}

func TestExportedSurface(t *testing.T) {
	offenders, err := exportedSurface(".", "piccolo")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := os.ReadFile("testdata/surface_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	unlisted, stale, bare := checkAllowlist(offenders, string(allow))
	for _, o := range unlisted {
		t.Errorf("%s is exported, but no non-test file outside its own reads it: delete it, unexport it, move it into a _test.go file, or allowlist it with a reason", o)
	}
	for _, s := range stale {
		t.Errorf("testdata/surface_allow.txt: %s is no longer an offender; delete its line", s)
	}
	for _, b := range bare {
		t.Errorf("testdata/surface_allow.txt: %s has no reason", b)
	}
}

// TestExportedSurfaceScanner runs the scan on a small tree: one identifier
// with no reader, one read only by a test, one read only in its own file, and
// one read only from bench/, beside names read the ordinary ways.
func TestExportedSurfaceScanner(t *testing.T) {
	got, err := exportedSurface("testdata/surface", "surf")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lib.OwnFile", "lib.T.Len", "lib.T.TestOnly", "lib.TestOnly", "lib.Unread"}
	if !slices.Equal(got, want) {
		t.Fatalf("findings = %q, want %q", got, want)
	}

	unlisted, stale, bare := checkAllowlist(got, "lib.Unread kept for the test\nlib.Gone deleted long ago\nlib.OwnFile\n")
	if want := []string{"lib.T.Len", "lib.T.TestOnly", "lib.TestOnly"}; !slices.Equal(unlisted, want) {
		t.Errorf("unlisted = %q, want %q", unlisted, want)
	}
	if want := []string{"lib.Gone"}; !slices.Equal(stale, want) {
		t.Errorf("stale = %q, want %q", stale, want)
	}
	if want := []string{"lib.OwnFile"}; !slices.Equal(bare, want) {
		t.Errorf("no reason = %q, want %q", bare, want)
	}
}
