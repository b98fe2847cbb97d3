// Uses of an alias must resolve to the alias, not to the type it names.
//
//go:debug gotypesalias=1

package hypo_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowPath lists the declarations TestReachability lets stand without
// a production caller, one per line with its reason.
const reachAllowPath = "testdata/reach_allow.txt"

// TestReachability fails on any function, method, package-level var, const
// or type of the root module that no non-test code references outside its
// own declaration. It type-checks every non-test package of the root module
// and of the benchmark module (so the ladder's calls count), with the
// standard library read from the build cache's export data.
//
// Exempt are methods that satisfy an interface some checked or imported
// package declares (repl.Source, vfs.FS, flag.Value, error, fmt.Stringer),
// the methods of Engine and Pool, which TestPublicSurface pins, and the
// entries of reachAllowPath. An entry is an import path (the whole
// package), a package-level name (path.Name) or a method
// (path.Type.Method), followed by its reason. An entry that names nothing,
// or only declarations that have a caller anyway, fails the test too.
func TestReachability(t *testing.T) {
	pkgs := goList(t, ".", "benchmark")
	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})

	type unit struct {
		pkg   *listedPackage
		files []*ast.File
		info  *types.Info
	}
	var units []unit
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
		units = append(units, unit{p, files, info})
	}

	// Every declaration of the root module outside benchmark/, with the
	// source ranges that make up its own body: a func's declaration, a
	// var's or const's spec, a type's spec and its methods.
	type decl struct {
		key    string
		ranges [][2]token.Pos
		method *types.Func
	}
	decls := map[types.Object]*decl{}
	add := func(obj types.Object, key string, from, to token.Pos) *decl {
		d := decls[obj]
		if d == nil {
			d = &decl{key: key}
			decls[obj] = d
		}
		d.ranges = append(d.ranges, [2]token.Pos{from, to})
		return d
	}
	for _, u := range units {
		if u.pkg.Module == nil || u.pkg.Module.Path != "hypodatalog" {
			continue
		}
		path := u.pkg.ImportPath
		for _, f := range u.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := u.info.Defs[d.Name].(*types.Func)
					if d.Recv == nil {
						if d.Name.Name == "init" || d.Name.Name == "_" || (d.Name.Name == "main" && u.pkg.Name == "main") {
							continue
						}
						add(obj, path+"."+d.Name.Name, d.Pos(), d.End())
						continue
					}
					recv := recvTypeName(obj)
					add(obj, path+"."+recv.Name()+"."+d.Name.Name, d.Pos(), d.End()).method = obj
					add(recv, path+"."+recv.Name(), d.Pos(), d.End())
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := u.info.Defs[s.Name]
							add(obj, path+"."+s.Name.Name, s.Pos(), s.End())
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name != "_" {
									add(u.info.Defs[n], path+"."+n.Name, s.Pos(), s.End())
								}
							}
						}
					}
				}
			}
		}
	}

	referenced := map[types.Object]bool{}
	for _, u := range units {
		for id, obj := range u.info.Uses {
			obj = origin(obj)
			d := decls[obj]
			if d == nil || referenced[obj] {
				continue
			}
			inside := false
			for _, r := range d.ranges {
				if r[0] <= id.Pos() && id.Pos() < r[1] {
					inside = true
					break
				}
			}
			if !inside {
				referenced[obj] = true
			}
		}
	}

	ifaces := interfacesByMethod(checked)
	satisfies := func(m *types.Func) bool {
		if m.Name() == "Unwrap" {
			// errors.Is/As and http.ResponseController assert Unwrap
			// through interfaces they do not export.
			return true
		}
		recv := recvTypeName(m).Type().(*types.Named)
		if recv.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces[m.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	pinned := map[string]bool{"hypodatalog.Engine": true, "hypodatalog.Pool": true}
	allow := readReachAllow(t)
	used := map[string]bool{}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for obj, d := range decls {
		if referenced[obj] {
			continue
		}
		if d.method != nil && (satisfies(d.method) || pinned[strings.TrimSuffix(d.key, "."+obj.Name())]) {
			continue
		}
		if k := allow.match(obj.Pkg().Path(), d.key); k != "" {
			used[k] = true
			continue
		}
		p := fset.Position(obj.Pos())
		rel, err := filepath.Rel(wd, p.Filename)
		if err != nil {
			rel = p.Filename
		}
		missing = append(missing, fmt.Sprintf("%s:%d: %s", rel, p.Line, d.key))
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s has no reference from non-test code: call it from production code, delete it, or list it in %s with a reason", m, reachAllowPath)
	}
	for _, k := range allow.keys {
		if !used[k] && !allow.pkgs[k] {
			t.Errorf("%s: %s names no declaration that lacks a production caller; take it off the list", reachAllowPath, k)
		}
		if allow.pkgs[k] && checked[k] == nil {
			t.Errorf("%s: %s is not a package of the module; take it off the list", reachAllowPath, k)
		}
	}
}

type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// goList lists the non-test packages of the modules rooted at dirs and
// every package they import, dependencies first, with export data built.
func goList(t *testing.T, dirs ...string) []*listedPackage {
	var out []*listedPackage
	seen := map[string]bool{}
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-e", "-json=ImportPath,Name,Dir,Standard,Export,GoFiles,Module,Error", "-deps", "-export", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		b, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		for dec.More() {
			p := new(listedPackage)
			if err := dec.Decode(p); err != nil {
				t.Fatal(err)
			}
			if p.Error != nil {
				t.Fatalf("go list %s: %s", p.ImportPath, p.Error.Err)
			}
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				out = append(out, p)
			}
		}
	}
	return out
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated generic function or type to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.TypeName:
		if n, ok := o.Type().(*types.Named); ok {
			return n.Origin().Obj()
		}
	}
	return obj
}

func recvTypeName(m *types.Func) *types.TypeName {
	t := types.Unalias(m.Type().(*types.Signature).Recv().Type())
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

// interfacesByMethod indexes, by method name, every non-generic named
// interface of the checked packages, of everything they import, and of
// the universe (error).
func interfacesByMethod(checked map[string]*types.Package) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	seen := map[*types.Package]bool{}
	addScope := func(s *types.Scope) {
		for _, name := range s.Names() {
			tn, ok := s.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if !ok || !it.IsMethodSet() {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				out[it.Method(i).Name()] = append(out[it.Method(i).Name()], it)
			}
		}
	}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		addScope(p.Scope())
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	addScope(types.Universe)
	for _, p := range checked {
		walk(p)
	}
	return out
}

type reachAllow struct {
	keys []string
	pkgs map[string]bool
	objs map[string]bool
}

// match returns the allow-list entry that covers the declaration key of a
// declaration in package path, or "".
func (a reachAllow) match(path, key string) string {
	if a.pkgs[path] {
		return path
	}
	if a.objs[key] {
		return key
	}
	return ""
}

func readReachAllow(t *testing.T) reachAllow {
	f, err := os.Open(reachAllowPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a := reachAllow{pkgs: map[string]bool{}, objs: map[string]bool{}}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", reachAllowPath, n, key)
		}
		a.keys = append(a.keys, key)
		if strings.Contains(key[strings.LastIndex(key, "/")+1:], ".") {
			a.objs[key] = true
		} else {
			a.pkgs[key] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return a
}
