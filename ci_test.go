package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCITestNamesExist keeps every CI step that runs tests by name
// honest. `go test -run TestNoSuchThing` prints "[no tests to run]" and
// `-fuzz FuzzNoSuchThing` prints "no fuzz tests to fuzz", and both exit
// 0, so a renamed or deleted test would leave its step green and
// empty. For each `go test` line of the workflow with a -run or -fuzz
// pattern, every name in the pattern (the alternatives of a|b|c, with
// ^ and $ anchors stripped) must be declared as `func Name(` in a
// _test.go file of one of the packages that line names.
func TestCITestNamesExist(t *testing.T) {
	const workflow = ".github/workflows/ci.yml"
	data, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	literal := regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)
	checked := 0
	for n, line := range strings.Split(string(data), "\n") {
		args := shellFields(line)
		i := 0
		for i+1 < len(args) && !(args[i] == "go" && args[i+1] == "test") {
			i++
		}
		if i+1 >= len(args) {
			continue
		}
		var patterns, pkgs []string
		for j := i + 2; j < len(args); j++ {
			a := args[j]
			switch {
			case (a == "-run" || a == "-fuzz") && j+1 < len(args):
				patterns = append(patterns, args[j+1])
				j++
			case strings.HasPrefix(a, "-run="), strings.HasPrefix(a, "-fuzz="):
				patterns = append(patterns, a[strings.Index(a, "=")+1:])
			case strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		if len(patterns) == 0 {
			continue
		}
		where := fmt.Sprintf("%s:%d", workflow, n+1)
		if len(pkgs) == 0 {
			t.Errorf("%s: go test runs tests by name but names no package", where)
			continue
		}
		decls := testDecls(t, pkgs)
		for _, p := range patterns {
			for _, name := range strings.Split(p, "|") {
				name = strings.TrimSuffix(strings.TrimPrefix(name, "^"), "$")
				checked++
				switch {
				case !literal.MatchString(name):
					t.Errorf("%s: %q in pattern %q is not a literal test name", where, name, p)
				case !decls[name]:
					t.Errorf("%s: pattern %q names %s, which no _test.go file of %v declares; the step would run nothing and pass", where, p, name, pkgs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatalf("%s has no go test -run or -fuzz step; the check itself would be empty", workflow)
	}
}

// testDecls returns the names of the functions the _test.go files of
// the package directories pkgs declare. A ./... pattern names no
// directory, so its tests are never found and the check fails rather
// than guess.
func testDecls(t *testing.T, pkgs []string) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ([A-Za-z_][A-Za-z0-9_]*)\(`)
	names := make(map[string]bool)
	for _, pkg := range pkgs {
		files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range decl.FindAllSubmatch(src, -1) {
				names[string(m[1])] = true
			}
		}
	}
	return names
}

// shellFields splits a workflow line into words the way sh would for
// the plain commands CI runs: on blanks, with single- and double-quoted
// spans kept whole and their quotes removed.
func shellFields(line string) []string {
	var out []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				out = append(out, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		out = append(out, cur.String())
	}
	return out
}
