package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoUnreferencedFunctions fails when an unexported top-level function in
// the module's non-test files is named nowhere else in its package's
// directory, tests included — code nothing calls is code nobody checks.
// Methods are exempt (they may satisfy an interface), and so is bench/, a
// module of its own. Every .go file counts whatever its build tags, so a
// function used only on one GOARCH is still used.
func TestNoUnreferencedFunctions(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		dir, name string
		pos       token.Pos
	}
	var decls []decl
	refs := map[string]int{} // dir + "." + identifier → references
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || isModuleRoot(path)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fn, ok := dd.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			declared[fn.Name] = true
			if name := fn.Name.Name; !ast.IsExported(name) && name != "init" && name != "main" && name != "_" &&
				!strings.HasSuffix(path, "_test.go") {
				decls = append(decls, decl{dir, name, fn.Name.Pos()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[dir+"."+id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		if refs[d.dir+"."+d.name] == 0 {
			dead = append(dead, fset.Position(d.pos).String()+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("unexported function with no reference: %s", d)
	}
}

// isModuleRoot reports whether dir holds a go.mod of its own (bench/).
func isModuleRoot(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}
