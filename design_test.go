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
)

// TestDocsNameOnlyDeclaredTests checks that every Test*, Benchmark* or
// Fuzz* name the design documents put in backticks is a function some Go
// file of the repository declares, so deleting or renaming a test cannot
// leave a document citing it.
func TestDocsNameOnlyDeclaredTests(t *testing.T) {
	declared := declaredFuncs(t)
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
		}
	}
}

// declaredFuncs returns the name of every top-level function in the
// repository's Go files.
func declaredFuncs(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
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
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				out[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
