package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestRetiredNamesStayGone: no Go file in a row's scope of
// scripts/retired_names.txt spells that row's pattern. Each row is a design
// decision — one way to do a thing — and a hit means its second way is back.
func TestRetiredNamesStayGone(t *testing.T) {
	for _, row := range readRetiredNames(t, filepath.Join("scripts", "retired_names.txt")) {
		for _, scope := range append(slices.Clip(row.roots), row.except...) {
			if _, err := os.Stat(scope); err != nil {
				t.Errorf("row %q (PR %s): scope %v", row.pattern, row.pr, err)
			}
		}
		if hits := retiredHits(t, row); len(hits) > 0 {
			t.Errorf("%s\n(retired in PR %s, pattern %q)\n  %s", row.reason, row.pr, row.pattern, strings.Join(hits, "\n  "))
		}
	}
}

// retiredName is one row of scripts/retired_names.txt.
type retiredName struct {
	pattern *regexp.Regexp
	// roots are the files and directories read; except the files left out.
	roots  []string
	except []string
	pr     string
	reason string
}

// readRetiredNames parses the table; see its header for the format.
func readRetiredNames(t *testing.T, path string) []retiredName {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []retiredName
	for i, line := range strings.Split(string(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cols := strings.Split(line, "\t")
		if len(cols) != 4 {
			t.Fatalf("%s:%d: %d tab-separated columns, want 4 (pattern, scope, PR, reason)", path, i+1, len(cols))
		}
		re, err := regexp.Compile(cols[0])
		if err != nil {
			t.Fatalf("%s:%d: %v", path, i+1, err)
		}
		row := retiredName{pattern: re, pr: cols[2], reason: cols[3]}
		scope, rest, _ := strings.Cut(cols[1], " except ")
		if scope == "default" {
			row.roots = []string{"."}
			row.except = strings.Fields(rest)
		} else {
			row.roots = strings.Fields(cols[1])
		}
		if len(row.roots) == 0 || row.pr == "" || row.reason == "" {
			t.Fatalf("%s:%d: a row needs a scope, a PR and a reason", path, i+1)
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		t.Fatalf("%s holds no rows", path)
	}
	return rows
}

// retiredHits lists "file:line: text" for every line of a non-test Go file
// in the row's scope that matches its pattern. bench/ is its own module and
// is never read; nor are hidden directories.
func retiredHits(t *testing.T, row retiredName) []string {
	t.Helper()
	var hits []string
	for _, scope := range row.roots {
		err := filepath.WalkDir(scope, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); name == "bench" || (strings.HasPrefix(name, ".") && path != ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || slices.Contains(row.except, path) {
				return nil
			}
			text, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for n, line := range strings.Split(string(text), "\n") {
				if row.pattern.MatchString(line) {
					hits = append(hits, path+":"+strconv.Itoa(n+1)+": "+strings.TrimSpace(line))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return hits
}
