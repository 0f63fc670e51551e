//go:build ignore

// unused_exports lists the top-level exported identifiers under internal/
// that no non-test file outside their package references — API kept for
// tests, or for nobody — and compares the list with the checked-in allow-list
// scripts/unused_exports.txt, which may only shrink: a name that is not
// listed fails, and so does a listed name that has found a caller or is gone
// (delete its line). cmd/, examples/ and the bench/ module count as callers.
// An exported method is listed, as Type.Method with a !, when no non-test
// file names it at all and no interface declares a method of its name
// (String, Error, MarshalJSON, Len, ...), through which it may be called.
//
//	go run scripts/unused_exports.go          # check against the allow-list
//	go run scripts/unused_exports.go -update  # rewrite the allow-list
//
// Standard library only: go/parser and go/types, with the source importer for
// the standard library and a directory walk for this module (and for bench/,
// whose go.mod replaces repro with ..), so nothing is downloaded or compiled.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	module    = "repro"
	allowList = "scripts/unused_exports.txt"
	header    = `# Exported identifiers under internal/ with no reference from a non-test file
# outside their package (cmd/, examples/ and bench/ count as callers). A
# trailing ! marks a name no non-test file references at all, its own package
# included. A method (Type.Method) is listed only with the !, and only when no
# interface declares a method of its name. Generated by
#   go run scripts/unused_exports.go -update
# CI runs the same program without -update and fails when this list and the
# tree disagree: it may only shrink.
`
)

// loader type-checks the module's packages from source, once each, and
// records every identifier use of their non-test files.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loaded
	errs []error
}

type loaded struct {
	pkg  *types.Package
	info *types.Info
}

// dirOf maps an import path of this module — or of the bench module, which
// sees this one through its replace directive — to its directory.
func dirOf(path string) (string, bool) {
	if path == module {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(path, module+"/"); ok {
		return filepath.FromSlash(rest), true
	}
	return "", false
}

func (l *loader) Import(path string) (*types.Package, error) {
	dir, local := dirOf(path)
	if !local {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p.pkg, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = nil // being checked: an import that comes back here is a cycle
	var files []*ast.File
	for _, name := range bp.GoFiles { // build constraints applied, tests left out
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object), Types: make(map[ast.Expr]types.TypeAndValue)}
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err) }}
	pkg, _ := conf.Check(path, l.fset, files, info)
	l.pkgs[path] = &loaded{pkg, info}
	return pkg, nil
}

// key names an object by where it is declared: positions survive a package
// being reached both as a root and through an import.
func (l *loader) key(obj types.Object) string { return l.fset.Position(obj.Pos()).String() }

func main() {
	update := flag.Bool("update", false, "rewrite "+allowList)
	flag.Parse()
	if _, err := os.Stat("go.mod"); err != nil {
		fatal(errors.New("run from the repository root: go run scripts/unused_exports.go"))
	}

	fset := token.NewFileSet()
	l := &loader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*loaded{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name[0] == '.' || name[0] == '_' || name == "testdata" || path == "scripts" || path == filepath.Join("bench", "out")) {
			return filepath.SkipDir
		}
		importPath := module
		if path != "." {
			importPath += "/" + filepath.ToSlash(path)
		}
		_, err = l.Import(importPath)
		if noGo := (*build.NoGoError)(nil); errors.As(err, &noGo) {
			return nil // no buildable non-test Go files here
		}
		return err
	})
	if err != nil {
		fatal(err)
	}
	if len(l.errs) > 0 {
		for _, err := range l.errs {
			fmt.Fprintln(os.Stderr, err)
		}
		fatal(errors.New("the tree does not type-check"))
	}

	// Who references what: outside marks a package-level object used from
	// another package, inside one used by its own; called marks a method
	// named from anywhere.
	outside, inside, called := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				called[l.key(fn.Origin())] = true
				continue
			}
			if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
				continue
			}
			if obj.Pkg() == p.pkg {
				inside[l.key(obj)] = true
			} else {
				outside[l.key(obj)] = true
			}
		}
	}
	viaInterface := l.interfaceMethods()
	var unused []string
	for path, p := range l.pkgs {
		if !strings.HasPrefix(path, module+"/internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() || outside[l.key(obj)] {
				continue
			}
			line := path + "." + name
			if !inside[l.key(obj)] {
				line += " !"
			}
			unused = append(unused, line)
		}
		// An exported method no non-test file names is dead unless an
		// interface may call it.
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if k := l.key(m); m.Exported() && !called[k] && !viaInterface[m.Name()] {
					unused = append(unused, path+"."+name+"."+m.Name()+" !")
				}
			}
		}
	}
	sort.Strings(unused)

	if *update {
		body := header + strings.Join(unused, "\n") + "\n"
		if err := os.WriteFile(allowList, []byte(body), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d names\n", allowList, len(unused))
		return
	}
	allowed, err := readAllowList()
	if err != nil {
		fatal(err)
	}
	bad := 0
	for _, line := range unused {
		if !allowed[line] {
			fmt.Printf("NEW    %s\n", line)
			bad++
		}
		delete(allowed, line)
	}
	stale := make([]string, 0, len(allowed))
	for line := range allowed {
		stale = append(stale, line)
	}
	sort.Strings(stale)
	for _, line := range stale {
		fmt.Printf("STALE  %s\n", line)
		bad++
	}
	if bad > 0 {
		fatal(fmt.Errorf("%d lines differ from %s: a NEW name needs a caller outside its package (or to lose its capital), a STALE line is to be deleted", bad, allowList))
	}
	fmt.Printf("ok: %d exported names under internal/ without an outside caller, all in %s\n", len(unused), allowList)
}

// interfaceMethods returns the method names an interface can call: those
// of every interface type the tree can name (the named ones of its packages
// and of the standard library packages they import, the interface literals
// its code writes, and error), plus Unwrap, which errors.Is and errors.As
// call through interfaces declared inside their bodies. A method is matched
// on its name alone, so generic interfaces and constraints count too.
func (l *loader) interfaceMethods() map[string]bool {
	names := map[string]bool{"Unwrap": true}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p.pkg)
		for _, tv := range p.info.Types {
			add(tv.Type)
		}
	}
	return names
}

func readAllowList() (map[string]bool, error) {
	f, err := os.Open(allowList)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allowed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && line[0] != '#' {
			allowed[line] = true
		}
	}
	return allowed, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "unused_exports:", err)
	os.Exit(1)
}
