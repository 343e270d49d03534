package vscsistats_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// backticked is one `code span` of a Markdown document.
	backticked = regexp.MustCompile("`[^`\n]+`")
	// testFuncName is a go test function name inside a code span.
	testFuncName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	// qualified is a pkg.Name or pkg.Type.Member inside a code span.
	qualified = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
)

// TestDocsNameOnlyDeclaredTests checks that every Test*, Benchmark* or
// Fuzz* name the design documents put in backticks is a function some Go
// file of the repository declares, and that every backticked pkg.Name or
// pkg.Type.Member whose pkg is a package of this module names a
// declaration in that package's non-test files, so deleting or renaming
// a test or an identifier cannot leave a document citing it.
func TestDocsNameOnlyDeclaredTests(t *testing.T) {
	declared := declaredFuncs(t)
	pkgs := declaredIdents(t)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range backticked.FindAllString(string(text), -1) {
			for _, name := range testFuncName.FindAllString(span, -1) {
				if !declared[name] {
					t.Errorf("%s cites %s in %s, which no Go file declares", doc, name, span)
				}
			}
			for _, m := range qualified.FindAllStringSubmatch(span, -1) {
				idents, ok := pkgs[m[1]]
				if !ok {
					continue // not a package of this module
				}
				if !idents[m[2]] || m[3] != "" && !idents[m[2]+"."+m[3]] {
					t.Errorf("%s cites %s in %s, which package %s does not declare", doc, m[0], span, m[1])
				}
			}
		}
	}
}

// declaredIdents maps the name of every non-main package of the module to
// what its non-test files declare: each top-level identifier as Name, and
// each method and struct field as Type.Member, a field's embedded type's
// members included.
func declaredIdents(t *testing.T) map[string]map[string]bool {
	t.Helper()
	pkgs := map[string]map[string]bool{}
	embeds := map[string]map[string][]string{} // pkg -> type -> embedded type names
	walkGo(t, func(path string, f *ast.File) {
		if f.Name.Name == "main" || strings.HasSuffix(path, "_test.go") {
			return
		}
		idents := pkgs[f.Name.Name]
		if idents == nil {
			idents = map[string]bool{}
			pkgs[f.Name.Name], embeds[f.Name.Name] = idents, map[string][]string{}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					idents[d.Name.Name] = true
				} else {
					idents[typeName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							idents[n.Name] = true
						}
					case *ast.TypeSpec:
						idents[sp.Name.Name] = true
						var fields []*ast.Field
						switch tt := sp.Type.(type) {
						case *ast.StructType:
							fields = tt.Fields.List
						case *ast.InterfaceType:
							fields = tt.Methods.List
						}
						for _, fd := range fields {
							for _, n := range fd.Names {
								idents[sp.Name.Name+"."+n.Name] = true
							}
							if len(fd.Names) == 0 {
								embeds[f.Name.Name][sp.Name.Name] = append(embeds[f.Name.Name][sp.Name.Name], typeName(fd.Type))
							}
						}
					}
				}
			}
		}
	})
	for pkg, types := range embeds {
		var promoted []string
		for typ, embedded := range types {
			for _, e := range embedded {
				promoted = append(promoted, typ+"."+e)
				for ident := range pkgs[pkg] {
					if member, ok := strings.CutPrefix(ident, e+"."); ok {
						promoted = append(promoted, typ+"."+member)
					}
				}
			}
		}
		for _, ident := range promoted {
			pkgs[pkg][ident] = true
		}
	}
	return pkgs
}

// typeName strips a receiver or embedded type expression to its name:
// *T, T[P] and pkg.T all give T.
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// declaredFuncs returns the name of every top-level function in the
// repository's Go files.
func declaredFuncs(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	walkGo(t, func(_ string, f *ast.File) {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				out[fn.Name.Name] = true
			}
		}
	})
	return out
}

// walkGo parses every Go file of the repository and hands it to fn.
func walkGo(t *testing.T, fn func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
