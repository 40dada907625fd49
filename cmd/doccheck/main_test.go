package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write puts one Go source file into dir.
func write(t *testing.T, dir, name, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckDirFindsViolations plants every violation class the gate
// exists for and checks each is reported exactly once.
func TestCheckDirFindsViolations(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a.go", `package p

type Undocumented struct{}

func (u *Undocumented) NoDocMethod() {}

func NoDocFunc() {}

const NoDocConst = 1

var (
	NoDocVar = 2
	// Blessed is fine.
	Blessed = 3
)

// Documented is fine.
type Documented struct{}

type hidden struct{}

func (h *hidden) ExportedOnHidden() {}
`)
	viols, err := checkDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(viols, "\n")
	for _, want := range []string{
		"package p has no package comment",
		"type Undocumented",
		"func NoDocMethod",
		"func NoDocFunc",
		"const NoDocConst",
		"var NoDocVar",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing violation %q in:\n%s", want, joined)
		}
	}
	for _, tolerated := range []string{"Blessed", "type Documented", "ExportedOnHidden"} {
		if strings.Contains(joined, tolerated) {
			t.Errorf("false positive on %q:\n%s", tolerated, joined)
		}
	}
	if len(viols) != 6 {
		t.Errorf("got %d violations, want 6:\n%s", len(viols), joined)
	}
}

// TestCheckDirCleanPackage verifies the grouped-declaration allowance
// and that a documented package passes.
func TestCheckDirCleanPackage(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "doc.go", `// Package p is documented.
package p

// Grouped constants: one comment covers the block.
const (
	A = 1
	B = 2
)

// F is documented.
func F() {}
`)
	// Test files are skipped without -tests.
	write(t, dir, "a_test.go", `package p

func TestHelperWithoutDoc() {}
`)
	viols, err := checkDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Errorf("clean package reported %d violations:\n%s", len(viols), strings.Join(viols, "\n"))
	}
}

// TestCheckDirSkipsGeneratedFiles verifies the generated-code marker
// exempts a file.
func TestCheckDirSkipsGeneratedFiles(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "gen.go", `// Code generated by stubgen. DO NOT EDIT.

package p

func NoDocButGenerated() {}
`)
	write(t, dir, "doc.go", `// Package p is documented.
package p
`)
	viols, err := checkDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Errorf("generated file reported %d violations:\n%s", len(viols), strings.Join(viols, "\n"))
	}
}

// TestCheckDirGeneratedMarkerMustPrecedePackageClause verifies a file
// merely quoting the generated-code marker in a post-package comment is
// NOT exempt from the gate.
func TestCheckDirGeneratedMarkerMustPrecedePackageClause(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "doc.go", `// Package p is documented.
package p
`)
	write(t, dir, "a.go", `package p

// helper quotes the marker in prose:
// Code generated by stringer. DO NOT EDIT.
func helper() {}

func NoDocFunc() {}
`)
	viols, err := checkDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 1 || !strings.Contains(viols[0], "NoDocFunc") {
		t.Errorf("quoted marker exempted the file; got %d violations: %v", len(viols), viols)
	}
}

// TestPackageDirs verifies the walker finds nested package directories.
func TestPackageDirs(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "x", "y")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	write(t, dir, "a.go", "package a\n")
	write(t, sub, "b.go", "package y\n")
	dirs, err := packageDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 {
		t.Fatalf("found %d package dirs, want 2: %v", len(dirs), dirs)
	}
}

// TestCheckCitationsFindsMissingDocs plants citations that resolve at
// the root, beside the file, inside a URL and as a glob, and three that
// resolve nowhere — one in a test file and one in an external test
// package — and checks that exactly the three are reported.
func TestCheckCitationsFindsMissingDocs(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "pkg")
	for _, d := range []string{filepath.Join(root, "docs"), dir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{filepath.Join(root, "docs", "wire.md"), filepath.Join(dir, "NOTES.md")} {
		if err := os.WriteFile(f, []byte("# doc\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(t, dir, "a.go", `// Package p follows docs/wire.md and NOTES.md, not
// https://example.com/blob/main/REMOTE.md or any *.md glob.
package p

/* The design lives in
DESIGN.md, which nobody wrote. */
const x = 1
`)
	write(t, dir, "a_test.go", `package p

// See EXPERIMENTS.md.
func helper() {}
`)
	write(t, dir, "ext_test.go", `package p_test

// See docs/GONE.md (it moved).
func helper() {}
`)
	viols, err := checkCitations(dir, root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(dir, "a.go") + ":6: comment cites DESIGN.md",
		filepath.Join(dir, "a_test.go") + ":3: comment cites EXPERIMENTS.md",
		filepath.Join(dir, "ext_test.go") + ":3: comment cites docs/GONE.md",
	}
	if len(viols) != len(want) {
		t.Fatalf("got %d violations, want %d:\n%s", len(viols), len(want), strings.Join(viols, "\n"))
	}
	for i, w := range want {
		if !strings.HasPrefix(viols[i], w) {
			t.Errorf("violation %d = %q, want prefix %q", i, viols[i], w)
		}
	}
}
