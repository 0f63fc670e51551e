package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// docLintFiles are the prose files held to the tree.
var docLintFiles = []string{"DESIGN.md", "README.md"}

// docLintAllow lists the back-quoted names in docLintFiles that do not
// resolve and are tolerated anyway. It may only shrink: the test fails for
// an unresolved name that is not listed, and for a listed name that resolves
// again or is no longer written anywhere.
var docLintAllow = []string{}

var (
	backQuoted = regexp.MustCompile("`([^`\n]+)`")
	// pkg.Symbol, pkg.Type.Member, with an optional call suffix.
	symbolRef = regexp.MustCompile(`^([a-z]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\.\w+)*(?:\(.*\))?$`)
	// path/file.go or file.go, with an optional :line or :from-to.
	fileRef = regexp.MustCompile(`^([\w./-]*\w\.go)(?::\d+(?:[-–]\d+)?)?$`)
)

// pkgDecls is what one directory under internal/ declares, test files
// included (the prose names tests): top-level names, and per type its fields
// and methods.
type pkgDecls struct {
	top     map[string]bool
	members map[string]map[string]bool
}

func (p *pkgDecls) member(typ, name string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	p.members[typ][name] = true
}

func parseInternal(t *testing.T) map[string]*pkgDecls {
	t.Helper()
	pkgs := map[string]*pkgDecls{}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		decls := &pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}}
		pkgs[d.Name()] = decls
		files, err := filepath.Glob(filepath.Join("internal", d.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						decls.top[d.Name.Name] = true
						continue
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if idx, ok := recv.(*ast.IndexExpr); ok { // generic receiver
						recv = idx.X
					} else if idx, ok := recv.(*ast.IndexListExpr); ok {
						recv = idx.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						decls.member(id.Name, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range s.Names {
								decls.top[n.Name] = true
							}
						case *ast.TypeSpec:
							decls.top[s.Name.Name] = true
							var fields *ast.FieldList
							switch typ := s.Type.(type) {
							case *ast.StructType:
								fields = typ.Fields
							case *ast.InterfaceType:
								fields = typ.Methods
							}
							if fields == nil {
								continue
							}
							for _, fld := range fields.List {
								for _, n := range fld.Names {
									decls.member(s.Name.Name, n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return pkgs
}

// goFiles returns every .go path in the tree (slash-separated, relative) and
// the set of their base names.
func goFiles(t *testing.T) (paths, bases map[string]bool) {
	t.Helper()
	paths, bases = map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			paths[filepath.ToSlash(path)] = true
			bases[d.Name()] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths, bases
}

// TestDocLint holds DESIGN.md and README.md to the tree: every back-quoted
// `pkg.Symbol` (pkg a directory under internal/; a second level is checked as
// a field or method of a struct or interface) and every back-quoted
// `path/file.go` must resolve, so a PR that deletes or renames code fails
// until the prose follows. It is the mechanical half of ROADMAP item 10.
func TestDocLint(t *testing.T) {
	pkgs := parseInternal(t)
	paths, bases := goFiles(t)

	fileOK := func(ref string) bool {
		if !strings.Contains(ref, "/") {
			return bases[ref]
		}
		for _, prefix := range []string{"", "internal/", "cmd/"} {
			if paths[prefix+ref] {
				return true
			}
		}
		return false
	}
	symbolOK := func(m []string) (checked, ok bool) {
		pkg := pkgs[m[1]]
		// layer.name_unit is a metric of the bench ladder, not a Go name: no
		// identifier in this tree has an underscore.
		if pkg == nil || strings.Contains(m[2], "_") {
			return false, false
		}
		if !pkg.top[m[2]] {
			return true, false
		}
		members := pkg.members[m[2]]
		return true, m[3] == "" || members == nil || members[m[3]]
	}

	unresolved := map[string][]string{} // name → files that write it
	var symbols, files int
	for _, doc := range docLintFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range backQuoted.FindAllStringSubmatch(string(text), -1) {
			ref := q[1]
			bad := false
			if m := fileRef.FindStringSubmatch(ref); m != nil {
				files++
				bad = !fileOK(m[1])
			} else if m := symbolRef.FindStringSubmatch(ref); m != nil {
				if checked, ok := symbolOK(m); checked {
					symbols++
					bad = !ok
				}
			}
			if bad && !slices.Contains(unresolved[ref], doc) {
				unresolved[ref] = append(unresolved[ref], doc)
			}
		}
	}

	t.Logf("checked %d symbol and %d file references", symbols, files)
	if symbols < 50 || files < 8 {
		t.Errorf("only %d symbol and %d file references found: the lint has stopped reading the prose", symbols, files)
	}

	allowed := map[string]bool{}
	for _, name := range docLintAllow {
		allowed[name] = true
		if unresolved[name] == nil {
			t.Errorf("docLintAllow lists `%s`, which resolves or is no longer written: delete it from the list", name)
		}
	}
	var stale []string
	for name, docs := range unresolved {
		if !allowed[name] {
			stale = append(stale, "`"+name+"` ("+strings.Join(docs, ", ")+")")
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Errorf("%s names nothing in the tree: fix the prose (or the code)", s)
	}
}
