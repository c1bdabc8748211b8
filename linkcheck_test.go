package predict_test

// Offline markdown link checker: every repo-relative link in the
// documentation (README.md, DESIGN.md, EXPERIMENTS.md, the other root
// documents, and docs/) must point at a file that exists, and every
// anchor — same-file or cross-file — must match a heading in its
// target. External http(s) links are out of scope: this suite runs
// offline and CI must not fail on someone else's outage. The checker is
// a test rather than an installed tool so it needs no network, no
// version pin, and runs with the ordinary suite. A second check holds
// every command or example directory the user-facing documents name to a
// directory that exists, so deleting a binary cannot leave its
// invocations behind. A third holds the exported functions under
// internal/, and every exported name of the root package, to ones
// something outside their own tests names; a fourth holds every field of
// the library's option structs to a non-test caller that sets it.

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// markdownFiles returns the documentation set: *.md at the repository
// root plus everything under docs/, which is where relative links can
// rot silently.
func markdownFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir("docs", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".md") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("link checker found no markdown files — is the test running outside the repo root?")
	}
	return files
}

// inlineLink matches [text](target) including images; target group 1
// stops at the closing parenthesis (no doc here nests parentheses in
// relative targets, and external targets are skipped anyway).
var inlineLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// githubSlug reproduces GitHub's heading-anchor algorithm closely
// enough for this repository: lowercase, drop everything but letters,
// digits, spaces and hyphens, then turn each space into a hyphen.
// Repeated headings get -1, -2… suffixes via the caller's counter.
func githubSlug(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(heading)) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// headingAnchors returns the set of anchor slugs a markdown file
// defines. Fenced code blocks are skipped so a "# comment" inside a
// shell snippet does not mint an anchor.
func headingAnchors(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	anchors := make(map[string]bool)
	counts := make(map[string]int)
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		text := strings.TrimLeft(line, "#")
		if text == line || (text != "" && text[0] != ' ') {
			continue // not a heading (e.g. "#!/bin/sh" outside a fence)
		}
		slug := githubSlug(text)
		if n := counts[slug]; n > 0 {
			anchors[slug+"-"+strconv.Itoa(n)] = true
		} else {
			anchors[slug] = true
		}
		counts[slug]++
	}
	return anchors
}

// TestMarkdownLinks holds every repo-relative documentation link to an
// existing target and every anchor to an existing heading.
func TestMarkdownLinks(t *testing.T) {
	anchorCache := make(map[string]map[string]bool)
	anchorsOf := func(path string) map[string]bool {
		if a, ok := anchorCache[path]; ok {
			return a
		}
		a := headingAnchors(t, path)
		anchorCache[path] = a
		return a
	}

	checked := 0
	for _, file := range markdownFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range inlineLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external: out of scope offline
			}
			checked++
			path, frag, _ := strings.Cut(target, "#")
			resolved := file
			if path != "" {
				resolved = filepath.Join(filepath.Dir(file), path)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken link %q: %v", file, target, err)
					continue
				}
			}
			if frag == "" {
				continue
			}
			if !strings.HasSuffix(resolved, ".md") {
				continue // anchors into non-markdown targets are not ours to define
			}
			if !anchorsOf(resolved)[frag] {
				t.Errorf("%s: link %q: no heading in %s slugs to %q", file, target, resolved, frag)
			}
		}
	}
	if checked == 0 {
		t.Error("link checker matched no repo-relative links — the extraction regexp has regressed")
	}
	t.Logf("checked %d repo-relative links", checked)
}

// commandMention matches a command or example directory named in prose or
// in a shell line: `go run ./cmd/predictd`, "cmd/genexp", examples/service.
var commandMention = regexp.MustCompile(`(?m)(?:^|[^\w/-])(?:\./)?((?:cmd|examples)/[a-z][a-z0-9_]*)`)

// TestDocCommandsExist holds every cmd/<name> and examples/<name> the
// user-facing documents mention to an existing directory. The history
// files (CHANGES.md, ROADMAP.md, ISSUE.md) are exempt: they name what was
// deleted on purpose.
func TestDocCommandsExist(t *testing.T) {
	files, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "README.md", "DESIGN.md", "EXPERIMENTS.md")
	checked := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range commandMention.FindAllStringSubmatch(string(data), -1) {
			checked++
			if info, err := os.Stat(m[1]); err != nil || !info.IsDir() {
				t.Errorf("%s: mentions %s, which is not a directory in this repository", file, m[1])
			}
		}
	}
	if checked == 0 {
		t.Error("no command mention matched — the extraction regexp has regressed")
	}
	t.Logf("checked %d command mentions", checked)
}

// implicitlyCalled are the method names the standard library calls on a
// value it is handed — fmt's String and Error, errors' Unwrap — with no
// call in this module's source: a method of one of these names reaches
// its callers through an interface checkModuleSources cannot see.
var implicitlyCalled = map[string]bool{"String": true, "Error": true, "Unwrap": true}

// TestExportedSurfaceIsReached holds "exported" to "something reaches it".
// Under internal/, every exported top-level function or method declared in
// a non-test file must be used — that *types.Func, not another of the same
// name — by a non-test file of this module or of benchmark/ (which
// compiles against internal/), or by a _test.go of another package. A method that implements a method of an
// interface declared in the module is reached when that interface method
// is, and one of implicitlyCalled's names always is. In the root package,
// the module's only importable API, every exported func, type, const and
// var must be selected as predict.X by a file outside the root directory
// (a command, an example, benchmark/), or be named in the signature of a
// root function so reached: a type callers hold without naming, like
// Prediction, counts.
func TestExportedSurfaceIsReached(t *testing.T) {
	m := checkModuleSources(t)
	// usedIn[fn] is the set of packages using fn: "" for every non-test
	// file (one shared key — any such use reaches), a directory's import
	// path for its test files.
	usedIn := map[*types.Func]map[string]bool{}
	record := func(info *types.Info, where string) {
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				if usedIn[fn] == nil {
					usedIn[fn] = map[string]bool{}
				}
				usedIn[fn][where] = true
			}
		}
	}
	record(m.info, "")
	for path, info := range m.checkTests() {
		record(info, path)
	}
	reachedFrom := func(fn *types.Func, own string) bool {
		for where := range usedIn[fn] {
			if where != own {
				return true
			}
		}
		return false
	}
	// The interface methods something calls, for the methods that
	// implement them: a concrete method is reached through an interface
	// method of its name that is reached, when its type has every method
	// of that interface. Methods are matched by name, not signature, so an
	// interface of a generic type matches whatever it is instantiated
	// with.
	var ifaceMethods []*types.Func
	for fn := range usedIn {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceMethods = append(ifaceMethods, fn)
		}
	}
	viaInterface := func(fn *types.Func, own string) bool {
		if implicitlyCalled[fn.Name()] {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		if _, ok := recv.(*types.Pointer); !ok {
			recv = types.NewPointer(recv) // the method set of both receivers
		}
	outer:
		for _, im := range ifaceMethods {
			if im.Name() != fn.Name() || !reachedFrom(im, own) {
				continue
			}
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			for i := range iface.NumMethods() {
				if obj, _, _ := types.LookupFieldOrMethod(recv, false, nil, iface.Method(i).Name()); obj == nil {
					continue outer
				}
			}
			return true
		}
		return false
	}

	paths := make([]string, 0, len(m.files))
	for path := range m.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	checked := 0
	for _, path := range paths {
		dir, ok := strings.CutPrefix(path, "predict/")
		if !ok || !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, file := range m.files[path] {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || !decl.Name.IsExported() {
					continue
				}
				fn, ok := m.info.Defs[decl.Name].(*types.Func)
				if !ok {
					t.Fatalf("%s.%s: the type checker defined no function", dir, decl.Name.Name)
				}
				checked++
				key := dir + "." + fn.Name()
				recv := fn.Type().(*types.Signature).Recv()
				if recv != nil {
					rt := recv.Type()
					if p, ok := rt.(*types.Pointer); ok {
						rt = p.Elem()
					}
					if named, ok := rt.(*types.Named); ok {
						key = dir + "." + named.Obj().Name() + "." + fn.Name()
					}
				}
				reached := reachedFrom(fn, path) || (recv != nil && viaInterface(fn, path))
				if !reached {
					t.Errorf("%s is exported but used only by its own package's tests (or by nothing): unexport it, move it to the _test.go that wants it, or delete it", key)
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("found only %d exported functions and methods under internal/ — is the test running outside the repo root?", checked)
	}
	rootSurfaceIsReached(t)
}

// rootSurfaceIsReached is TestExportedSurfaceIsReached's root-package half.
func rootSurfaceIsReached(t *testing.T) {
	// rootNames are the root package's exported names, rootSigs the
	// identifiers in each root function's signature, and rootUsed the
	// names other directories select from the root package.
	var rootNames []string
	rootSigs := map[string][]*ast.Ident{}
	rootUsed := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("benchmark", "out") || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, isTest := filepath.ToSlash(filepath.Dir(path)), strings.HasSuffix(path, "_test.go")
		if !isTest && dir == "." {
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() {
						rootNames = append(rootNames, d.Name.Name)
						ast.Inspect(d.Type, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								rootSigs[d.Name.Name] = append(rootSigs[d.Name.Name], id)
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								rootNames = append(rootNames, s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.IsExported() {
									rootNames = append(rootNames, id.Name)
								}
							}
						}
					}
				}
			}
		}
		if name := rootImportName(file); name != "" && dir != "." {
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
						rootUsed[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rootNames) < 10 {
		t.Fatalf("found only %d exported names in the root package — has the extraction regressed?", len(rootNames))
	}
	reached := map[string]bool{}
	for name := range rootUsed {
		reached[name] = true
		for _, id := range rootSigs[name] {
			reached[id.Name] = true
		}
	}
	for _, name := range rootNames {
		if !reached[name] {
			t.Errorf("predict.%s is exported but no file outside the root package selects it, nor does the signature of a root function one selects name it: unexport it or delete it", name)
		}
	}
}

// rootImportName returns the name file refers to the root package by, or
// "" when file does not import it.
func rootImportName(file *ast.File) string {
	for _, imp := range file.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "predict" {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path
		}
	}
	return ""
}

// predictdFlags parses cmd/predictd/main.go and returns the name of every
// flag it registers (flag.String("addr", ...) and friends) and the name of
// every service.Config field its service.New call assigns.
func predictdFlags(t *testing.T) (flags, configFields map[string]bool) {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", "predictd", "main.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	flags, configFields = map[string]bool{}, map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || len(n.Args) != 3 {
				return true
			}
			pkg, isIdent := sel.X.(*ast.Ident)
			name, isLit := n.Args[0].(*ast.BasicLit)
			if isIdent && pkg.Name == "flag" && isLit && name.Kind == token.STRING {
				flags[strings.Trim(name.Value, `"`)] = true
			}
		case *ast.CompositeLit:
			if sel, ok := n.Type.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Config" {
				return true
			}
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					configFields[kv.Key.(*ast.Ident).Name] = true
				}
			}
		}
		return true
	})
	return flags, configFields
}

// flagTableRow matches one row of the predictd flag table in docs/API.md:
// a table line whose first cell is a backquoted -flag.
var flagTableRow = regexp.MustCompile("(?m)^\\| `-([a-z][a-z-]*)` \\|")

// TestPredictdFlagsAreDocumented holds the flag set predictd registers
// equal to the flag table in docs/API.md, in both directions: a flag is
// documented when it is added and its row goes when it does.
func TestPredictdFlagsAreDocumented(t *testing.T) {
	flags, _ := predictdFlags(t)
	data, err := os.ReadFile(filepath.Join("docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range flagTableRow.FindAllStringSubmatch(string(data), -1) {
		documented[m[1]] = true
	}
	if len(flags) == 0 || len(documented) == 0 {
		t.Fatalf("parsed %d flags from cmd/predictd/main.go and %d rows from docs/API.md — an extraction has regressed", len(flags), len(documented))
	}
	for name := range flags {
		if !documented[name] {
			t.Errorf("predictd registers -%s but the flag table in docs/API.md has no row for it", name)
		}
	}
	for name := range documented {
		if !flags[name] {
			t.Errorf("docs/API.md documents -%s, which predictd does not register", name)
		}
	}
}

// configFieldCount is how many fields service.Config has. The rule that
// keeps it there (DESIGN.md §10 "Constants, and why they are not flags"):
// a value is a Config field — and a predictd flag — only if two
// deployments that exist today set it differently or it is a setting of
// this host (an address, a path, a capacity); otherwise it is a named
// constant beside the code that reads it. A new field changes this number
// in the same commit that says which of the two it is.
const configFieldCount = 11

// TestConfigFieldsHaveFlags holds every exported service.Config field to
// an assignment in cmd/predictd/main.go — a field no binary can set is a
// constant with extra steps — and pins the field count.
func TestConfigFieldsHaveFlags(t *testing.T) {
	_, assigned := predictdFlags(t)
	file, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "service", "service.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	fields := 0
	ast.Inspect(file, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Config" {
			return true
		}
		for _, f := range ts.Type.(*ast.StructType).Fields.List {
			for _, name := range f.Names {
				fields++
				if name.IsExported() && !assigned[name.Name] {
					t.Errorf("service.Config.%s is assigned by no flag in cmd/predictd/main.go: make it a constant or give it one", name.Name)
				}
			}
		}
		return false
	})
	if fields != configFieldCount {
		t.Errorf("service.Config has %d fields, pinned at %d: an option is a value two deployments set differently (see configFieldCount)", fields, configFieldCount)
	}
}

// optionStruct matches the names of the structs TestOptionFieldsAreSet
// covers by name; parameterStructs lists the others it covers.
var optionStruct = regexp.MustCompile(`(Options|Config|Policy)$`)

// parameterStructs are the structs whose fields are settings without an
// option name: the simulated cluster's prices, the per-worker counters the
// engine fills, and each paper algorithm's parameters.
var parameterStructs = map[string]bool{
	"internal/cluster.CostOracle":                true,
	"internal/cluster.WorkerLoad":                true,
	"internal/algorithms.PageRank":               true,
	"internal/algorithms.ConnectedComponents":    true,
	"internal/algorithms.NeighborhoodEstimation": true,
	"internal/algorithms.TopKRanking":            true,
	"internal/algorithms.SemiClustering":         true,
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// moduleSources is every package of this module and of benchmark/ (both
// map a directory d to the import path "predict/d"), parsed under this
// host's build context, with its non-test files type-checked.
type moduleSources struct {
	fset     *token.FileSet
	files    map[string][]*ast.File // non-test files by import path
	tests    map[string][]*ast.File // _test.go files by their directory's import path
	pkgs     map[string]*types.Package
	info     *types.Info // of the non-test files
	importer types.Importer
}

// checkModuleSources parses every package of the module and type-checks
// its non-test files. Imports from outside the module resolve to empty
// packages: only the module's own types matter here, so the errors about
// undefined standard-library names are expected and dropped.
func checkModuleSources(t *testing.T) *moduleSources {
	t.Helper()
	m := &moduleSources{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		tests: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("benchmark", "out") || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
			return err
		}
		file, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "predict"
		if dir != "" {
			pkg += "/" + filepath.ToSlash(filepath.Clean(dir))
		}
		if strings.HasSuffix(name, "_test.go") {
			m.tests[pkg] = append(m.tests[pkg], file)
		} else {
			m.files[pkg] = append(m.files[pkg], file)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var importer importerFunc
	importer = func(path string) (*types.Package, error) {
		if pkg, ok := m.pkgs[path]; ok {
			return pkg, nil
		}
		var pkg *types.Package
		if m.files[path] == nil {
			pkg = types.NewPackage(path, path[strings.LastIndex(path, "/")+1:])
			pkg.MarkComplete()
		} else {
			conf := types.Config{Importer: importer, Error: func(error) {}}
			pkg, _ = conf.Check(path, m.fset, m.files[path], m.info)
		}
		m.pkgs[path] = pkg
		return pkg, nil
	}
	m.importer = importer
	for path := range m.files {
		_, _ = importer(path)
	}
	return m
}

// checkTests type-checks every directory's test files and returns their
// uses by the directory's import path: a package's own tests checked
// together with a fresh copy of its non-test files, its external (_test)
// package on its own, both importing the module's checked packages.
func (m *moduleSources) checkTests() map[string]*types.Info {
	out := map[string]*types.Info{}
	for path, tests := range m.tests {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		var internal, external []*ast.File
		for _, f := range tests {
			if strings.HasSuffix(f.Name.Name, "_test") {
				external = append(external, f)
			} else {
				internal = append(internal, f)
			}
		}
		conf := types.Config{Importer: m.importer, Error: func(error) {}}
		if len(internal) > 0 {
			_, _ = conf.Check(path, m.fset, append(slices.Clone(m.files[path]), internal...), info)
		}
		if len(external) > 0 {
			_, _ = conf.Check(path+"_test", m.fset, external, info)
		}
		out[path] = info
	}
	return out
}

// TestOptionFieldsAreSet holds every exported field of every exported
// struct under internal/ whose name ends in Options, Config or Policy, and
// of each of parameterStructs, to a caller in a non-test file of this
// module or of benchmark/ that sets it: as a key of a composite literal of
// the type, on the left-hand side of an assignment (o.CostModel.
// DisableSelection = v sets both fields it selects), or as the operand of
// ++ or --. An assignment inside a method of a covered type does not count
// for that type's own fields: withDefaults filling its own zero value is
// not a caller, but an algorithm's method setting bsp.Config.MaxSupersteps
// is. A field only tests set is a constant with extra steps (DESIGN.md
// §10, "Constants, and why they are not flags").
func TestOptionFieldsAreSet(t *testing.T) {
	m := checkModuleSources(t)
	files, pkgs, info := m.files, m.pkgs, m.info
	fieldKey := map[*types.Var]string{}       // covered field → "<dir>.<Type>.<Field>"
	owner := map[*types.Var]*types.TypeName{} // covered field → its struct
	covered := map[*types.TypeName]bool{}
	for path, pkg := range pkgs {
		if !strings.HasPrefix(path, "predict/internal/") || files[path] == nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			typeKey := strings.TrimPrefix(path, "predict/") + "." + name
			if !ok || !tn.Exported() || tn.IsAlias() || !(optionStruct.MatchString(name) || parameterStructs[typeKey]) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			covered[tn] = true
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() {
					fieldKey[f] = typeKey + "." + f.Name()
					owner[f] = tn
				}
			}
		}
	}
	if len(fieldKey) < 30 {
		t.Fatalf("found only %d option fields under internal/ — is the test running outside the repo root?", len(fieldKey))
	}

	set := map[string]bool{}
	// mark records obj as set unless it is a field of recv, the covered
	// type whose method the setter is in (nil outside such methods).
	mark := func(obj types.Object, recv *types.TypeName) {
		if f, ok := obj.(*types.Var); ok && fieldKey[f] != "" && owner[f] != recv {
			set[fieldKey[f]] = true
		}
	}
	assigned := func(e ast.Expr, recv *types.TypeName) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil {
					mark(sel.Obj(), recv)
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return
			}
		}
	}
	for _, pkgFiles := range files {
		for _, file := range pkgFiles {
			for _, decl := range file.Decls {
				var recv *types.TypeName // the covered type this is a method of
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
					if m, ok := info.Defs[fn.Name].(*types.Func); ok {
						t := m.Type().(*types.Signature).Recv().Type()
						if p, ok := t.(*types.Pointer); ok {
							t = p.Elem()
						}
						if named, ok := t.(*types.Named); ok && covered[named.Obj()] {
							recv = named.Obj()
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						for _, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if key, ok := kv.Key.(*ast.Ident); ok {
									mark(info.Uses[key], nil)
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							assigned(lhs, recv)
						}
					case *ast.IncDecStmt:
						assigned(n.X, recv)
					}
					return true
				})
			}
		}
	}

	keys := make([]string, 0, len(fieldKey))
	for _, key := range fieldKey {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if !set[key] {
			t.Errorf("%s is set by no non-test file: make it a constant beside the code that reads it, or delete it", key)
		}
	}
	t.Logf("checked %d option fields of %d structs", len(keys), len(covered))
}
