package gridgather_test

// The documentation gates of the repo (the CI docs job runs them next to
// gofmt and go vet):
//
//   - TestFacadeFullyDocumented walks go/doc over the public gridgather
//     facade and fails on any exported identifier without a doc comment;
//   - TestInternalPackageComments requires every internal/* package to
//     carry its package comment in a doc.go file;
//   - TestMarkdownLinks fails on relative links to files that do not
//     exist in README/DESIGN/EXPERIMENTS/ROADMAP and the other committed
//     markdown;
//   - TestExperimentTablesCurrent fails when a table row recorded in
//     EXPERIMENTS.md differs from what the quick preset generates.

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gridgather/internal/experiments"
)

// parsePackage loads the non-test Go files of one directory into a go/doc
// package (doc.AllDecls so unexported helpers do not hide anything).
func parsePackage(t *testing.T, dir string) (*doc.Package, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing %s: %v", dir, err)
	}
	for name, pkg := range pkgs {
		if strings.HasSuffix(name, "_test") || name == "main" {
			continue
		}
		files := make([]*ast.File, 0, len(pkg.Files))
		for _, f := range pkg.Files {
			files = append(files, f)
		}
		d, err := doc.NewFromFiles(fset, files, "gridgather/"+dir, doc.AllDecls)
		if err != nil {
			t.Fatalf("go/doc over %s: %v", dir, err)
		}
		return d, fset
	}
	t.Fatalf("no library package found in %s", dir)
	return nil, nil
}

// TestFacadeFullyDocumented: zero exported identifiers without doc
// comments in the public facade — types, funcs, methods, consts, vars.
func TestFacadeFullyDocumented(t *testing.T) {
	d, fset := parsePackage(t, ".")
	if strings.TrimSpace(d.Doc) == "" {
		t.Error("package gridgather has no package comment")
	}
	var missing []string
	report := func(kind, name string, pos token.Pos) {
		missing = append(missing, fmt.Sprintf("%s: %s %s", fset.Position(pos), kind, name))
	}
	checkValues := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			if strings.TrimSpace(v.Doc) != "" {
				// A documented group documents its members: the group
				// comment is expected to cover each name's meaning.
				continue
			}
			for _, spec := range v.Decl.Specs {
				vspec, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if vspec.Doc.Text() != "" || vspec.Comment.Text() != "" {
					continue
				}
				for _, n := range vspec.Names {
					if n.IsExported() {
						report(kind, n.Name, n.Pos())
					}
				}
			}
		}
	}
	checkFuncs := func(owner string, fs []*doc.Func) {
		for _, f := range fs {
			if !token.IsExported(f.Name) {
				continue
			}
			if strings.TrimSpace(f.Doc) == "" {
				report("func", owner+f.Name, f.Decl.Pos())
			}
		}
	}
	checkValues("const", d.Consts)
	checkValues("var", d.Vars)
	checkFuncs("", d.Funcs)
	for _, ty := range d.Types {
		if token.IsExported(ty.Name) && strings.TrimSpace(ty.Doc) == "" {
			// An undocumented type declared inside a documented group decl
			// still needs its own comment: group comments cover values, not
			// type semantics. Allow per-spec comments.
			documented := false
			for _, spec := range ty.Decl.Specs {
				tspec, ok := spec.(*ast.TypeSpec)
				if !ok || tspec.Name.Name != ty.Name {
					continue
				}
				if tspec.Doc.Text() != "" || tspec.Comment.Text() != "" {
					documented = true
				}
			}
			if !documented {
				report("type", ty.Name, ty.Decl.Pos())
			}
		}
		checkValues("const", ty.Consts)
		checkValues("var", ty.Vars)
		checkFuncs("", ty.Funcs)
		checkFuncs(ty.Name+".", ty.Methods)
	}
	if len(missing) > 0 {
		t.Errorf("%d exported identifiers without doc comments:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

// TestInternalPackageComments: every internal package carries a package
// comment, and it lives in doc.go (the repo convention, so godoc intros
// are findable and do not migrate between files).
func TestInternalPackageComments(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("implausibly few internal packages: %v", dirs)
	}
	for _, dir := range dirs {
		fi, err := os.Stat(dir)
		if err != nil || !fi.IsDir() {
			continue
		}
		t.Run(filepath.Base(dir), func(t *testing.T) {
			fset := token.NewFileSet()
			docFile := filepath.Join(dir, "doc.go")
			f, err := parser.ParseFile(fset, docFile, nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("every internal package keeps its package comment in doc.go: %v", err)
			}
			if strings.TrimSpace(f.Doc.Text()) == "" {
				t.Fatalf("%s has no package comment", docFile)
			}
			if !strings.HasPrefix(f.Doc.Text(), "Package "+f.Name.Name) {
				t.Errorf("%s: package comment must start with %q", docFile, "Package "+f.Name.Name)
			}
		})
	}
}

// mdLink matches inline markdown links; bare URLs and reference-style
// links are not used in this repo's docs.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinks: every relative link in the committed markdown points
// at a file that exists (anchors are stripped; external URLs are skipped —
// the checker must work offline).
func TestMarkdownLinks(t *testing.T) {
	files, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("implausibly few markdown files: %v", files)
	}
	for _, md := range files {
		if md == "SNIPPETS.md" {
			// Quotes other repos' documentation verbatim, including their
			// relative links; those do not resolve here by design.
			continue
		}
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("%s: broken link %q", md, m[1])
			}
		}
	}
}

// TestExperimentTablesCurrent: under every "## E…" heading, the table rows
// of EXPERIMENTS.md equal the rows the quick preset renders today (what
// `gatherbench -quick` prints at its default seed 1), so a recorded table
// cannot go stale and a hand-edited row fails. Prose is ignored: only
// lines starting with "|" count, section by section.
func TestExperimentTablesCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	outs, err := experiments.All(experiments.Params{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	recorded := experimentTableRows(string(data))
	generated := experimentTableRows(experiments.Render(outs, false))
	for _, o := range outs {
		heading := fmt.Sprintf("## %s — %s", o.ID, o.Title)
		want := generated[heading]
		got, ok := recorded[heading]
		if !ok {
			t.Errorf("EXPERIMENTS.md has no section %q", heading)
			continue
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: EXPERIMENTS.md table rows differ from gatherbench -quick\nrecorded:\n%s\ngenerated:\n%s",
				o.ID, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
	for heading := range recorded {
		if _, ok := generated[heading]; !ok {
			t.Errorf("EXPERIMENTS.md section %q is not generated by the suite", heading)
		}
	}
}

// experimentTableRows maps each "## E" heading of a markdown document to
// the table rows (lines starting with "|") between it and the next
// heading.
func experimentTableRows(md string) map[string][]string {
	sections := map[string][]string{}
	heading := ""
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(line, "#") {
			heading = ""
			if strings.HasPrefix(line, "## E") {
				heading = line
				sections[heading] = nil
			}
			continue
		}
		if heading != "" && strings.HasPrefix(line, "|") {
			sections[heading] = append(sections[heading], line)
		}
	}
	return sections
}
