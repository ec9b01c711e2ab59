package monocle_test

// API lock: the exported surface of the public monocle package is pinned
// to api_golden.txt. Any change to exported types, functions, methods,
// constants, variables, or the exported fields of exported structs fails
// this test until the golden file is regenerated with
//
//	go test -run TestAPILock -update-api .
//
// making API changes deliberate, reviewed work instead of accidents.

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite api_golden.txt with the current exported surface")

const goldenFile = "api_golden.txt"

func TestAPILock(t *testing.T) {
	got := renderAPI(t)
	if *updateAPI {
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d lines)", goldenFile, strings.Count(got, "\n"))
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update-api): %v", goldenFile, err)
	}
	if string(want) == got {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	seen := make(map[string]bool, len(wantLines))
	for _, l := range wantLines {
		seen[l] = true
	}
	for _, l := range gotLines {
		if l != "" && !seen[l] {
			t.Errorf("added to public API: %s", l)
		}
	}
	seen = make(map[string]bool, len(gotLines))
	for _, l := range gotLines {
		seen[l] = true
	}
	for _, l := range wantLines {
		if l != "" && !seen[l] {
			t.Errorf("removed from public API: %s", l)
		}
	}
	if t.Failed() {
		t.Fatalf("public API surface changed; if intended, regenerate %s with -update-api", goldenFile)
	}
	t.Fatalf("public API surface reordered; regenerate %s with -update-api", goldenFile)
}

// renderAPI parses the root package (non-test files) and renders one line
// per exported symbol, sorted.
func renderAPI(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["monocle"]
	if !ok {
		t.Fatalf("root package monocle not found (got %v)", pkgs)
	}

	var lines []string
	add := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				recv := ""
				if d.Recv != nil && len(d.Recv.List) == 1 {
					rt := exprString(fset, d.Recv.List[0].Type)
					base := strings.TrimPrefix(rt, "*")
					if !ast.IsExported(base) {
						continue
					}
					recv = "(" + rt + ") "
				}
				add("func %s%s%s", recv, d.Name.Name, signatureString(fset, d.Type))
			case *ast.GenDecl:
				switch d.Tok {
				case token.TYPE:
					for _, spec := range d.Specs {
						ts := spec.(*ast.TypeSpec)
						if !ts.Name.IsExported() {
							continue
						}
						eq := ""
						if ts.Assign != token.NoPos {
							eq = "= "
						}
						add("type %s %s%s", ts.Name.Name, eq, typeString(fset, ts.Type))
					}
				case token.CONST, token.VAR:
					kind := "const"
					if d.Tok == token.VAR {
						kind = "var"
					}
					for _, spec := range d.Specs {
						vs := spec.(*ast.ValueSpec)
						for _, name := range vs.Names {
							if name.IsExported() {
								add("%s %s", kind, name.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// typeString renders a type expression; a struct keeps only its exported
// and embedded fields, laid out as gofmt would, so its unexported fields
// can change without touching the golden file.
func typeString(fset *token.FileSet, e ast.Expr) string {
	st, ok := e.(*ast.StructType)
	if !ok {
		return exprString(fset, e)
	}
	var src strings.Builder
	src.WriteString("package p\n\ntype _ struct {\n")
	for _, f := range st.Fields.List {
		var names []string
		for _, n := range f.Names {
			if n.IsExported() {
				names = append(names, n.Name)
			}
		}
		if len(f.Names) > 0 && len(names) == 0 {
			continue
		}
		if len(names) > 0 {
			src.WriteString(strings.Join(names, ", ") + " ")
		}
		src.WriteString(exprString(fset, f.Type))
		if f.Tag != nil {
			src.WriteString(" " + f.Tag.Value)
		}
		src.WriteString("\n")
	}
	src.WriteString("}\n")
	out, err := format.Source([]byte(src.String()))
	if err != nil {
		return fmt.Sprintf("<%v>", err)
	}
	return strings.TrimSuffix(strings.TrimPrefix(string(out), "package p\n\ntype _ "), "\n")
}

// signatureString renders a function type's parameter/result lists.
func signatureString(fset *token.FileSet, ft *ast.FuncType) string {
	s := exprString(fset, ft)
	return strings.TrimPrefix(s, "func")
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return fmt.Sprintf("<%v>", err)
	}
	return buf.String()
}

// TestAPILockStructFields: a struct renders its exported and embedded
// fields only, so an unexported field can come or go without touching
// the golden file, while an exported one cannot.
func TestAPILockStructFields(t *testing.T) {
	render := func(body string) string {
		t.Helper()
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "", "package p\ntype S struct {\n"+body+"}\n", 0)
		if err != nil {
			t.Fatal(err)
		}
		return typeString(fset, f.Decls[0].(*ast.GenDecl).Specs[0].(*ast.TypeSpec).Type)
	}
	base := render("\tA int\n\tio.Reader\n")
	if !strings.Contains(base, "io.Reader") {
		t.Fatalf("embedded field dropped:\n%s", base)
	}
	if got := render("\tA int\n\n\tb, c string\n\tio.Reader\n\td int\n"); got != base {
		t.Errorf("unexported fields changed the rendering:\n%s\nwant\n%s", got, base)
	}
	if got := render("\tA int\n\tio.Reader\n\tB int\n"); got == base {
		t.Error("an added exported field left the rendering unchanged")
	}
}
