package repro

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported product functions and methods that no
// product code calls, one per line with the reason each is kept.
const surfaceAllowlist = "testdata/test_only_api.txt"

// TestExportedSurfaceHasProductCallers pins the product API to what the
// product calls. It type-checks every non-test file under internal/, cmd/
// and bench/ that this platform builds, and lists each exported function or
// method declared under internal/ or cmd/ that none of those files refers
// to, outside its own body. The list must equal the allowlist: a new exported declaration that
// only tests reach fails here until it is unexported, moved into an
// export_test.go or allowlisted with a reason, and a deleted one fails
// until its allowlist line goes too.
func TestExportedSurfaceHasProductCallers(t *testing.T) {
	got, err := unreferencedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	want, err := readSurfaceAllowlist(surfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s is exported but only tests call it: delete it, unexport it, move it into an export_test.go, or add it to %s with a reason", name, surfaceAllowlist)
		}
	}
	for name := range want {
		if !slices.Contains(got, name) {
			t.Errorf("%s is listed in %s but is gone or has a product caller now: drop its line", name, surfaceAllowlist)
		}
	}
}

// readSurfaceAllowlist parses "name  reason" lines; blank lines and lines
// starting with # are skipped, and every entry needs a reason.
func readSurfaceAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, name)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, name)
		}
		out[name] = reason
	}
	return out, sc.Err()
}

// unreferencedExports returns, sorted, the exported functions and methods
// declared in non-test files under root/internal and root/cmd that no
// non-test file under internal/, cmd/ or bench/ uses. A method is named
// "pkg.Type.Method" and a function "pkg.Func", pkg being the import path
// below the module root. A call through an interface method counts as a use
// of every method that satisfies it; a call only the standard library makes
// (fmt calling String, errors calling Unwrap) does not.
func unreferencedExports(root string) ([]string, error) {
	l := &surfaceLoader{
		fset: token.NewFileSet(),
		root: root,
		pkgs: map[string]*surfacePkg{},
		std:  importer.Default(),
	}
	var dirs []string
	for _, top := range []string{"internal", "cmd", "bench"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || d.Name() == "out" {
					return filepath.SkipDir
				}
				dirs = append(dirs, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for _, dir := range dirs {
		if _, err := l.load(dir); err != nil {
			return nil, err
		}
	}

	declared := map[*types.Func]string{}
	used := map[*types.Func]bool{}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				// bench/ only calls the product; it declares none of it.
				if !ok || !fd.Name.IsExported() || p.rel == "bench" {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				if fd.Recv == nil {
					declared[fn] = p.rel + "." + fn.Name()
				} else if named := recvNamed(fn); named != nil && named.Obj().Exported() {
					declared[fn] = p.rel + "." + named.Obj().Name() + "." + fn.Name()
				}
			}
		}
		// A use counts unless it sits inside the body of the function it
		// refers to.
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if d := p.enclosingFunc(id.Pos()); d != nil && p.info.Defs[d.Name] == fn {
				continue
			}
			used[fn] = true
		}
	}
	// A method that satisfies a used interface method is used through it.
	var viaIface []*types.Func
	for fn := range used {
		if sig := fn.Type().(*types.Signature); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			viaIface = append(viaIface, fn)
		}
	}
	var out []string
	for fn, name := range declared {
		if !used[fn] && !satisfiesUsed(fn, viaIface) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

func satisfiesUsed(fn *types.Func, ifaceMethods []*types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	for _, im := range ifaceMethods {
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if im.Name() == fn.Name() && types.Implements(t, iface) {
			return true
		}
	}
	return false
}

func recvNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func (p *surfacePkg) enclosingFunc(pos token.Pos) *ast.FuncDecl {
	for _, f := range p.files {
		if pos < f.Pos() || pos >= f.End() {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
				return fd
			}
		}
	}
	return nil
}

type surfacePkg struct {
	rel   string // import path below the module root, e.g. "internal/query"
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// surfaceLoader type-checks the repository's packages from source, non-test
// files only, and the standard library from export data.
type surfaceLoader struct {
	fset *token.FileSet
	root string
	pkgs map[string]*surfacePkg
	std  types.Importer
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, "repro/")
	if !ok {
		return l.std.Import(path)
	}
	p, err := l.load(filepath.Join(l.root, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *surfaceLoader) load(dir string) (*surfacePkg, error) {
	if p, ok := l.pkgs[dir]; ok {
		if p.types == nil {
			return nil, fmt.Errorf("import cycle through %s", dir)
		}
		return p, nil
	}
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return nil, err
	}
	p := &surfacePkg{rel: filepath.ToSlash(rel)}
	l.pkgs[dir] = p
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Only the files this platform builds: a per-OS pair declares the
		// same names twice.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	p.types, err = conf.Check(p.rel, l.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", dir, err)
	}
	return p, nil
}
