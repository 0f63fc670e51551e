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
	"strconv"
	"strings"
	"testing"
)

// docLintFiles are the prose held to the tree: a whole file, or after a
// colon the one "## " section of it that is checked.
var docLintFiles = []string{"DESIGN.md", "README.md", "ROADMAP.md:Open items"}

// docText reads one docLintFiles entry.
func docText(t *testing.T, doc string) string {
	t.Helper()
	name, section, _ := strings.Cut(doc, ":")
	text, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if section == "" {
		return string(text)
	}
	_, body, ok := strings.Cut(string(text), "\n## "+section+"\n")
	if !ok {
		t.Fatalf("%s has no \"## %s\" section", name, section)
	}
	if end := strings.Index(body, "\n## "); end >= 0 {
		body = body[:end]
	}
	return body
}

// docLintAllow lists the back-quoted names in docLintFiles that do not
// resolve and are tolerated anyway. It may only shrink: the test fails for
// an unresolved name that is not listed, and for a listed name that resolves
// again or is no longer written anywhere.
var docLintAllow = []string{}

// docLintToolFlags are the flags the prose writes that belong to the go tool,
// not to cmd/strata. It may only shrink too: a listed flag that cmd/strata
// defines, or that no prose file writes any more, fails the test.
var docLintToolFlags = []string{"race"}

var (
	backQuoted = regexp.MustCompile("`([^`\n]+)`")
	// pkg.Symbol, pkg.Type.Member, with an optional call suffix.
	symbolRef = regexp.MustCompile(`^([a-z]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\.\w+)*(?:\(.*\))?$`)
	// path/file.go or file.go, with an optional :line or :from-to.
	fileRef = regexp.MustCompile(`^([\w./-]*\w\.go)(?::\d+(?:[-–]\d+)?)?$`)
	// -flag or -flag=value as one word of a back-quoted string.
	flagRef = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:=.*)?$`)
)

// flagDefiners are the flag.FlagSet methods (and package functions) that
// define a flag, with the position of the name argument.
var flagDefiners = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "String": 0, "Float64": 0, "Duration": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1, "StringVar": 1, "Float64Var": 1, "DurationVar": 1, "TextVar": 1, "Var": 1,
}

// strataFlags returns every flag name cmd/strata defines: the string literal
// in the name position of a flag-defining call with at least name, default (or
// target) and usage.
func strataFlags(t *testing.T) map[string]bool {
	t.Helper()
	flags := map[string]bool{}
	files, err := filepath.Glob("cmd/strata/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			at, ok := flagDefiners[sel.Sel.Name]
			if !ok || len(call.Args) < 3 {
				return true
			}
			if lit, ok := call.Args[at].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					flags[name] = true
				}
			}
			return true
		})
	}
	return flags
}

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

// TestDocLint holds DESIGN.md, README.md and ROADMAP.md's open items to the
// tree: every back-quoted
// `pkg.Symbol` (pkg a directory under internal/; a second level is checked as
// a field or method of a struct or interface) and every back-quoted
// `path/file.go` must resolve, and every `-flag` written inside back quotes
// (alone, with a value, or as a word of a quoted command line) or after the
// strata binary on a line of a fenced block must be one cmd/strata defines or
// a listed go-tool flag — so a PR that deletes or renames code, or retires a
// flag, fails until the prose follows. It is the mechanical half of ROADMAP
// item 13.
func TestDocLint(t *testing.T) {
	pkgs := parseInternal(t)
	paths, bases := goFiles(t)
	defined := strataFlags(t)
	toolFlagWritten := map[string]bool{}

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
	var symbols, files, flags int
	note := func(name, doc string) {
		if !slices.Contains(unresolved[name], doc) {
			unresolved[name] = append(unresolved[name], doc)
		}
	}
	checkFlags := func(words []string, doc string) {
		for _, word := range words {
			m := flagRef.FindStringSubmatch(strings.Trim(word, `[]",;:.)`))
			if m == nil {
				continue
			}
			flags++
			if slices.Contains(docLintToolFlags, m[1]) {
				toolFlagWritten[m[1]] = true
			} else if !defined[m[1]] {
				note("-"+m[1], doc)
			}
		}
	}
	for _, doc := range docLintFiles {
		text := docText(t, doc)
		for _, q := range backQuoted.FindAllStringSubmatch(text, -1) {
			ref := q[1]
			if m := fileRef.FindStringSubmatch(ref); m != nil {
				files++
				if !fileOK(m[1]) {
					note(ref, doc)
				}
			} else if m := symbolRef.FindStringSubmatch(ref); m != nil {
				if checked, ok := symbolOK(m); checked {
					symbols++
					if !ok {
						note(ref, doc)
					}
				}
			}
			checkFlags(strings.Fields(ref), doc)
		}
		// Inside a ``` fence, the words that follow the strata binary on its
		// command line.
		fenced := false
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			} else if fenced {
				words := strings.Fields(line)
				for i, word := range words {
					if word == "strata" || strings.HasSuffix(word, "/strata") {
						checkFlags(words[i+1:], doc)
						break
					}
				}
			}
		}
	}

	t.Logf("checked %d symbol, %d file and %d flag references against %d defined flags", symbols, files, flags, len(defined))
	if symbols < 50 || files < 8 || flags < 40 || len(defined) < 40 {
		t.Errorf("only %d symbol, %d file and %d flag references and %d defined flags found: the lint has stopped reading the prose or the flag sets",
			symbols, files, flags, len(defined))
	}
	for _, name := range docLintToolFlags {
		if defined[name] || !toolFlagWritten[name] {
			t.Errorf("docLintToolFlags lists -%s, which cmd/strata defines or no prose file writes: delete it from the list", name)
		}
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
