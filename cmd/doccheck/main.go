// Command doccheck is the repository's documentation gate: a small
// go vet-style checker that fails when a package under the given
// directories exports an identifier without a doc comment, lacks a
// package comment entirely, or cites a Markdown file that does not
// exist. CI's lint job runs it over the repository so the package
// documentation contract (every package self-describing, every
// exported name explained, every cited document present) is enforced
// rather than aspirational.
//
// Usage:
//
//	doccheck [-tests] dir [dir ...]
//
// Each dir is walked recursively; every directory containing Go files
// is checked as a package. Exit status is 1 if any violation is found.
// Violations print one per line as file:line: message, the format
// editors and CI annotations already understand.
//
// The rule set mirrors the conventional (staticcheck ST1000/ST1020-ish)
// expectations without pulling in a dependency:
//
//   - every package must carry a package comment on some file;
//   - every exported type, function, method, constant, and variable
//     must have a doc comment, except that one comment on a grouped
//     const/var declaration covers the whole group;
//   - methods of unexported types are exempt (their type is not part
//     of the API), as are generated files (a "Code generated" header);
//   - a comment in any Go file, test files included, that names a *.md
//     file must name one that exists relative to the working directory
//     (the repo root, where CI runs the gate) or to the citing file's
//     directory. Names inside URLs are not checked.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	tests := flag.Bool("tests", false, "also check in-package _test.go files (external package foo_test files stay exempt: their exported names are Test/Example harness entry points, not API)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: doccheck [-tests] dir [dir ...]")
		os.Exit(2)
	}
	bad := 0
	for _, root := range flag.Args() {
		dirs, err := packageDirs(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		for _, dir := range dirs {
			viols, err := checkDir(dir, *tests)
			if err == nil {
				var cites []string
				cites, err = checkCitations(dir, ".")
				viols = append(viols, cites...)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
				os.Exit(2)
			}
			for _, v := range viols {
				fmt.Println(v)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d violation(s)\n", bad)
		os.Exit(1)
	}
}

// packageDirs returns every directory under root holding Go files.
func packageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// pkgFile is one parsed file with its path.
type pkgFile struct {
	path string
	ast  *ast.File
}

// checkDir parses one package directory and returns its violations.
func checkDir(dir string, tests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	byPkg := map[string][]pkgFile{} // package name -> files, in name order
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg := f.Name.Name
		if strings.HasSuffix(pkg, "_test") {
			continue
		}
		byPkg[pkg] = append(byPkg[pkg], pkgFile{path: path, ast: f})
	}
	var viols []string
	for _, files := range byPkg {
		viols = append(viols, checkPackage(fset, files)...)
	}
	sort.Strings(viols)
	return viols, nil
}

// checkPackage applies the rule set to one parsed package.
func checkPackage(fset *token.FileSet, files []pkgFile) []string {
	var viols []string
	hasPkgDoc := false
	var firstFile, pkgName string

	// Exported type names, so methods on unexported receivers can be
	// exempted in a second pass.
	exportedTypes := map[string]bool{}
	for _, pf := range files {
		for _, decl := range pf.ast.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
					exportedTypes[ts.Name.Name] = true
				}
			}
		}
	}

	for _, pf := range files {
		f := pf.ast
		if generated(f) {
			continue
		}
		if firstFile == "" {
			firstFile, pkgName = pf.path, f.Name.Name
		}
		if f.Doc != nil {
			hasPkgDoc = true
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Doc != nil {
					continue
				}
				if d.Recv != nil && !receiverExported(d.Recv, exportedTypes) {
					continue
				}
				viols = append(viols, violation(fset, d.Pos(), "func", d.Name.Name))
			case *ast.GenDecl:
				viols = append(viols, checkGenDecl(fset, d)...)
			}
		}
	}
	if !hasPkgDoc && firstFile != "" {
		viols = append(viols, fmt.Sprintf("%s: package %s has no package comment", firstFile, pkgName))
	}
	return viols
}

// checkGenDecl checks one type/const/var declaration. A doc comment on
// the declaration covers every spec in its group; otherwise each
// exported spec needs its own.
func checkGenDecl(fset *token.FileSet, d *ast.GenDecl) []string {
	if d.Tok == token.IMPORT || d.Doc != nil {
		return nil
	}
	var viols []string
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
				viols = append(viols, violation(fset, s.Pos(), "type", s.Name.Name))
			}
		case *ast.ValueSpec:
			if s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					viols = append(viols, violation(fset, n.Pos(), d.Tok.String(), n.Name))
				}
			}
		}
	}
	return viols
}

// receiverExported reports whether a method's receiver type is
// exported in this package.
func receiverExported(recv *ast.FieldList, exported map[string]bool) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return exported[tt.Name]
		default:
			return false
		}
	}
}

// generated reports whether the file carries the standard generated-
// code marker. Per the go command convention the marker must appear
// before the package clause — a comment elsewhere merely quoting the
// marker text does not exempt the file.
func generated(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "// Code generated ") && strings.HasSuffix(c.Text, " DO NOT EDIT.") {
				return true
			}
		}
	}
	return false
}

// violation formats one finding.
func violation(fset *token.FileSet, pos token.Pos, kind, name string) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name)
}

// mdCitation matches a *.md file name in comment text. The name must
// not follow a word character, '.', '/', ':' or '-', so a name inside
// a URL or a longer path is not read as a citation of its own.
var mdCitation = regexp.MustCompile(`(?:^|[^\w./:-])([\w-][\w./-]*\.md)\b`)

// checkCitations reports every comment in dir's Go files, test files
// included, that names a *.md file existing neither under root nor in
// dir.
func checkCitations(dir, root string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var viols []string
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range mdCitation.FindAllStringSubmatchIndex(c.Text, -1) {
					name := c.Text[m[2]:m[3]]
					if exists(filepath.Join(root, name)) || exists(filepath.Join(dir, name)) {
						continue
					}
					line := fset.Position(c.Pos()).Line + strings.Count(c.Text[:m[2]], "\n")
					viols = append(viols, fmt.Sprintf("%s:%d: comment cites %s, which exists neither at the repo root nor beside the file",
						path, line, name))
				}
			}
		}
	}
	return viols, nil
}

// exists reports whether path names an existing file or directory.
func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
