// Package testlink holds one gate: every function declared in the module's
// non-test code is linked into at least one of its binaries. A function no
// main package reaches is either dead or kept alive only by its own tests,
// and either way it is code to read and maintain that no workload runs.
//
// The recipe: build every main package with inlining off (-gcflags=all=-l,
// so a small function is not folded into its callers and lost from the
// symbol table), take the union of their text symbols under the module
// (`go tool nm`, ABI suffixes and type arguments stripped), and diff it
// against every func declared in a file the current platform compiles. Run
// it with
//
//	go test -v ./internal/testlink/
//
// -v prints the unlinked functions; -short skips the gate.
package testlink

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// testPkgs is the import-path prefix of the test-only packages (testbuf,
// testchaos, testlevel, testwait): only _test files import them, so no
// binary links them. A function one of them reaches by go:linkname —
// buffer's peek, elastic's kill, tensor's pinKernelLevel — is test code
// that has to live in the package whose internals it reads.
const testPkgs = "melissa/internal/test"

// allowed are the files whose functions may stay unlinked, each with its
// reason.
var allowed = map[string]string{
	"melissa/internal/client/predict.go":  "the predict client; unifying it with bench/serve.go's client is a change to the benchmark",
	"melissa/internal/transport/chaos.go": "the fault injector the transport chaos tests drive; moving it into test code would not make it smaller",
}

// linknameDirective matches a go:linkname directive's target.
var linknameDirective = regexp.MustCompile(`(?m)^//go:linkname \S+ (\S+)$`)

// pkg is the part of `go list -json` the gate reads.
type pkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	CgoFiles   []string
}

func TestEveryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every main package; skipped under -short")
	}
	pkgs := listPackages(t)
	linked := linkedSymbols(t, pkgs)

	var unlinked []string
	for _, p := range pkgs {
		if strings.HasPrefix(p.ImportPath, testPkgs) {
			continue
		}
		for _, name := range p.GoFiles {
			if _, ok := allowed[p.ImportPath+"/"+name]; ok {
				continue
			}
			for _, fn := range declaredFuncs(t, p.ImportPath, filepath.Join(p.Dir, name)) {
				if !linked[fn] {
					unlinked = append(unlinked, fn)
				}
			}
		}
	}
	sort.Strings(unlinked)
	for _, fn := range unlinked {
		t.Log(fn)
	}
	if len(unlinked) > 0 {
		t.Errorf("%d functions are linked by no binary of the module (listed with -v); delete them, or move the ones other tests need into a _test.go file", len(unlinked))
	}
}

// listPackages returns every package of the module, with the files the
// current platform builds.
func listPackages(t *testing.T) []pkg {
	t.Helper()
	out := run(t, "go", "list", "-json", "melissa/...")
	var pkgs []pkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		p.GoFiles = append(p.GoFiles, p.CgoFiles...)
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// abiSuffix is what nm adds to an assembly function's name.
var abiSuffix = regexp.MustCompile(`\.abi\d+$`)

// dropTypeArgs removes a generic instantiation's bracketed shapes, nested
// brackets included.
func dropTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, c := range sym {
		switch {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// linkedSymbols builds every main package and returns the module's text
// symbols in them, main's rewritten to the package's import path, and the
// targets of the test-only packages' go:linkname directives.
func linkedSymbols(t *testing.T, pkgs []pkg) map[string]bool {
	t.Helper()
	dir := t.TempDir()
	var mains []string
	for _, p := range pkgs {
		if p.Name == "main" {
			mains = append(mains, p.ImportPath)
		}
	}
	run(t, "go", append([]string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}, mains...)...)
	linked := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.ImportPath, testPkgs) {
			continue
		}
		for _, name := range p.GoFiles {
			src, err := os.ReadFile(filepath.Join(p.Dir, name))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range linknameDirective.FindAllSubmatch(src, -1) {
				linked[string(m[1])] = true
			}
		}
	}
	for _, m := range mains {
		sc := bufio.NewScanner(bytes.NewReader(run(t, "go", "tool", "nm", filepath.Join(dir, filepath.Base(m)))))
		for sc.Scan() {
			// address, kind, name; a name may hold spaces.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			sym := f[2]
			if strings.HasPrefix(sym, "main.") {
				sym = m + sym[len("main"):]
			}
			if !strings.HasPrefix(sym, "melissa.") && !strings.HasPrefix(sym, "melissa/") {
				continue
			}
			linked[dropTypeArgs(abiSuffix.ReplaceAllString(sym, ""))] = true
		}
	}
	return linked
}

// declaredFuncs returns the symbol name of every func declared in file of
// package path, init functions left out: path.F, path.T.M or path.(*T).M.
func declaredFuncs(t *testing.T, path, file string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || (fd.Recv == nil && fd.Name.Name == "init") || fd.Name.Name == "_" {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil {
			name = receiver(fd.Recv.List[0].Type) + "." + name
		}
		names = append(names, path+"."+name)
	}
	return names
}

// receiver spells a method's receiver type as nm does, type parameters
// dropped: T or (*T).
func receiver(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return "(*" + receiver(x.X) + ")"
	case *ast.IndexExpr:
		return receiver(x.X)
	case *ast.IndexListExpr:
		return receiver(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

func run(t *testing.T, name string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(name, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return out
}
