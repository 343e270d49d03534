package vscsistats_test

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

// TestFacadeExportsOnlyWhatIsUsed holds the facade to its rule: it exports
// every name a program under cmd/ or examples/ uses, and the types those
// names take or return, so a library user can still name them. Any other
// exported name fails here; code that needs it imports the internal
// package instead.
func TestFacadeExportsOnlyWhatIsUsed(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]bool{}            // exported top-level names
	signatures := map[string][]ast.Node{} // what a kept name takes or returns
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decls[d.Name.Name] = true
					signatures[d.Name.Name] = append(signatures[d.Name.Name], d.Type)
				} else {
					recv := receiverName(d.Recv)
					signatures[recv] = append(signatures[recv], d.Type)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[s.Name.Name] = true
							signatures[s.Name.Name] = append(signatures[s.Name.Name], s.Type)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("facade exports nothing")
	}

	used := map[string]bool{}
	var queue []string
	mark := func(name string) {
		if decls[name] && !used[name] {
			used[name] = true
			queue = append(queue, name)
		}
	}
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			for _, local := range facadeImportNames(f) {
				ast.Inspect(f, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
							mark(sel.Sel.Name)
						}
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(used) == 0 {
		t.Fatal("no program under cmd/ or examples/ uses the facade")
	}
	// A kept name keeps the facade types in its signature (struct fields
	// and exported methods included). Qualified names belong to other
	// packages, so selector expressions are not followed.
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		for _, sig := range signatures[name] {
			ast.Inspect(sig, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					return false
				case *ast.Ident:
					mark(n.Name)
				}
				return true
			})
		}
	}

	var unused []string
	for name := range decls {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d facade names reached by no command, example or kept signature: %s",
			len(unused), strings.Join(unused, ", "))
	}
}

// receiverName is the base type name of a method receiver.
func receiverName(recv *ast.FieldList) string {
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// facadeImportNames returns the names f refers to the facade package by.
func facadeImportNames(f *ast.File) []string {
	var names []string
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != "vscsistats" {
			continue
		}
		if imp.Name != nil {
			names = append(names, imp.Name.Name)
		} else {
			names = append(names, "vscsistats")
		}
	}
	return names
}
