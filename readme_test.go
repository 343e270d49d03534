package vscsistats_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// readmeProgram matches the example and command paths README.md tells a
// reader to run, with or without the leading "./".
var readmeProgram = regexp.MustCompile(`(?:^|[^\w/])(?:\./)?((?:examples|cmd)/[\w-]+)`)

// TestReadmeNamesOnlyExistingPrograms checks that every examples/<name> and
// ./cmd/<name> README.md names is a directory holding package main, so
// deleting or renaming a program cannot leave a stale row behind.
func TestReadmeNamesOnlyExistingPrograms(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range readmeProgram.FindAllStringSubmatch(string(readme), -1) {
		dir := m[1]
		if seen[dir] {
			continue
		}
		seen[dir] = true
		if pkg := mainPackageOf(t, dir); pkg != "main" {
			t.Errorf("README.md names %s: %s, want package main", dir, pkg)
		}
	}
	if len(seen) == 0 {
		t.Fatal("README.md names no program")
	}
}

// mainPackageOf returns "main" if dir's non-test Go files all declare
// package main, and otherwise a description of what dir holds instead.
func mainPackageOf(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "no directory"
	}
	pkg := "no Go file"
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name != "main" {
			return "package " + f.Name.Name
		}
		pkg = "main"
	}
	return pkg
}
