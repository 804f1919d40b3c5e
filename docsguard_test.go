package dixq

// Documentation guards: these tests keep the prose honest. One walks
// every internal package and fails if its package comment is missing or
// trivial; the other resolves every relative link in the repository's
// markdown files. Both run in plain `go test ./...`, so documentation
// rot fails CI like any other regression.

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dixq/internal/cliflags"
	"dixq/internal/core"
	"dixq/internal/obs"
)

// TestEveryInternalPackageHasDoc parses each internal package and
// requires a package comment of at least one full sentence.
func TestEveryInternalPackageHasDoc(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("glob found only %d internal packages — run from the repo root", len(dirs))
	}
	for _, dir := range dirs {
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			continue
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Errorf("%s: %v", dir, err)
			continue
		}
		for name, pkg := range pkgs {
			doc := ""
			for _, f := range pkg.Files {
				if f.Doc != nil && f.Doc.Text() != "" {
					doc = f.Doc.Text()
					break
				}
			}
			if len(doc) < 60 {
				t.Errorf("package %s (%s): package doc missing or trivial (%d chars) — add a package comment saying what it is and which part of the paper it implements", name, dir, len(doc))
			}
		}
	}
}

// mdLink matches inline markdown links; the loop below skips absolute
// URLs and in-page anchors and resolves the rest against the file's
// directory.
var mdLink = regexp.MustCompile(`\]\(([^)#?\s]+)(?:#[^)]*)?\)`)

// TestMarkdownRelativeLinksResolve checks every relative link in the
// repository's documentation.
func TestMarkdownRelativeLinksResolve(t *testing.T) {
	var files []string
	for _, pattern := range []string{"*.md", "docs/*.md"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	if len(files) < 5 {
		t.Fatalf("found only %d markdown files — run from the repo root", len(files))
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved to %s)", file, target, resolved)
			}
		}
	}
}

// registeredFlags builds a command's real flag set through
// internal/cliflags — the same constructor its main uses — and returns
// the registered flag names. Checking against the FlagSet rather than
// grepping main.go means a flag can't hide from the guard behind an
// unusual declaration style.
func registeredFlags(register func(fs *flag.FlagSet)) map[string]bool {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	register(fs)
	names := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { names[f.Name] = true })
	return names
}

// apiDocFlags extracts the flag names documented in one command's table
// of the "Command-line flags" part of docs/API.md (the `### <command>`
// section; rows open with a backticked `-name`, optionally followed by a
// value placeholder).
func apiDocFlags(t *testing.T, apiDoc, command string) map[string]bool {
	t.Helper()
	_, section, ok := strings.Cut(apiDoc, "### "+command+"\n")
	if !ok {
		t.Fatalf("docs/API.md: no `### %s` section", command)
	}
	if i := strings.Index(section, "\n#"); i >= 0 {
		section = section[:i]
	}
	names := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		rest, ok := strings.CutPrefix(line, "| `-")
		if !ok {
			continue
		}
		cell, _, ok := strings.Cut(rest, "`")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(cell, " ")
		names[name] = true
	}
	if len(names) == 0 {
		t.Fatalf("docs/API.md: `### %s` section contains no flag rows", command)
	}
	return names
}

// TestCommandFlagsMatchAPIDocs cross-checks each binary's flag set
// against its docs/API.md table, in both directions: an undocumented
// flag and a documented-but-removed flag both fail.
func TestCommandFlagsMatchAPIDocs(t *testing.T) {
	data, err := os.ReadFile("docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	apiDoc := string(data)
	commands := []struct {
		name     string
		register func(fs *flag.FlagSet)
	}{
		{"dixqd", func(fs *flag.FlagSet) { cliflags.Dixqd(fs) }},
		{"dibench", func(fs *flag.FlagSet) { cliflags.Dibench(fs, nil) }},
	}
	for _, cmd := range commands {
		registered := registeredFlags(cmd.register)
		documented := apiDocFlags(t, apiDoc, cmd.name)
		for name := range registered {
			if !documented[name] {
				t.Errorf("%s flag -%s is not documented in the `### %s` table of docs/API.md", cmd.name, name, cmd.name)
			}
		}
		for name := range documented {
			if !registered[name] {
				t.Errorf("docs/API.md documents %s flag -%s, which the command does not register", cmd.name, name)
			}
		}
	}
}

// codeSpan matches inline markdown code spans; flagToken matches the
// flag-shaped words inside them.
var (
	codeSpan   = regexp.MustCompile("`([^`]+)`")
	fenced     = regexp.MustCompile("(?s)```.*?```")
	optionsRef = regexp.MustCompile(`\b(dixq|core)\.Options\.(\w+)`)
	metricRef  = regexp.MustCompile(`dixq_[a-z0-9_]+`)
	metricType = regexp.MustCompile(`(?m)^# TYPE (\S+) `)
)

// goTestFlags are the go test flags the documents quote beside the
// commands' own.
var goTestFlags = map[string]bool{"race": true, "cpu": true, "run": true, "bench": true, "benchmem": true, "benchtime": true, "count": true}

// guardedDocs lists the markdown files whose references to code must
// resolve: the README, the design and experiment write-ups and docs/.
// CHANGES.md and ROADMAP.md record history and name what was removed on
// purpose; benchmark/ documents its own harness.
func guardedDocs(t *testing.T) map[string]string {
	t.Helper()
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil || len(docs) == 0 {
		t.Fatalf("no docs/*.md (%v) — run from the repo root", err)
	}
	out := map[string]string{}
	for _, f := range append(files, docs...) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[f] = string(data)
	}
	return out
}

// inlineSpans returns the inline code spans of a markdown text.
func inlineSpans(text string) []string {
	var spans []string
	for _, m := range codeSpan.FindAllStringSubmatch(fenced.ReplaceAllString(text, ""), -1) {
		spans = append(spans, m[1])
	}
	return spans
}

// codeSpans returns all the code a markdown text quotes: its fenced blocks
// and its inline code spans.
func codeSpans(text string) []string {
	return append(fenced.FindAllString(text, -1), inlineSpans(text)...)
}

// TestPerformanceDocKnobsResolve keeps the documented knobs honest: every
// `-flag` docs/PERFORMANCE.md names must be registered by dixqd or
// dibench, and in every guarded document every `dixq.Options.Field` and
// `core.Options.Field` must be a real field and every `dixq_*` metric
// name must be registered in the process metric set and documented in the
// docs/API.md metrics table (a name ending in "_" stands for the family of
// metrics it prefixes). The flag check stays on PERFORMANCE.md's inline
// spans: the other documents and the fenced examples also quote go test,
// curl and the dixq CLI.
func TestPerformanceDocKnobsResolve(t *testing.T) {
	docs := guardedDocs(t)
	apiDoc := docs["docs/API.md"]
	flags := registeredFlags(func(fs *flag.FlagSet) { cliflags.Dixqd(fs) })
	for name := range registeredFlags(func(fs *flag.FlagSet) { cliflags.Dibench(fs, nil) }) {
		flags[name] = true
	}
	for _, span := range inlineSpans(docs["docs/PERFORMANCE.md"]) {
		for _, word := range strings.Fields(span) {
			name, ok := strings.CutPrefix(word, "-")
			if !ok || name == "" || name[0] < 'a' || name[0] > 'z' {
				continue
			}
			if name, _, _ = strings.Cut(name, "="); goTestFlags[name] {
				continue
			}
			if !flags[name] {
				t.Errorf("docs/PERFORMANCE.md names flag -%s, which neither dixqd nor dibench registers", name)
			}
		}
	}
	optTypes := map[string]reflect.Type{"dixq": reflect.TypeOf(Options{}), "core": reflect.TypeOf(core.Options{})}
	registered := map[string]bool{}
	for _, m := range metricType.FindAllStringSubmatch(obs.Default.Render(), -1) {
		registered[m[1]] = true
	}
	for file, text := range docs {
		for _, m := range optionsRef.FindAllStringSubmatch(text, -1) {
			if _, ok := optTypes[m[1]].FieldByName(m[2]); !ok {
				t.Errorf("%s names %s.Options.%s, which is not a field of %s.Options", file, m[1], m[2], m[1])
			}
		}
		for _, metric := range metricRef.FindAllString(text, -1) {
			family := metric
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(metric, suffix); ok && registered[base] {
					family = base
				}
			}
			if strings.HasSuffix(metric, "_") {
				for name := range registered {
					if strings.HasPrefix(name, metric) {
						family = name
					}
				}
			}
			if !registered[family] {
				t.Errorf("%s names metric %s, which the process does not register", file, metric)
			} else if !strings.Contains(apiDoc, family) {
				t.Errorf("%s names metric %s, which docs/API.md does not document", file, metric)
			}
		}
	}
}

// goSymbols is the exported surface of one Go package: its top-level
// declarations, and for each named type its fields and methods (nil for
// aliases, whose members live with the aliased type).
type goSymbols map[string]map[string]bool

// parseSymbols collects the top-level declarations of the Go files of the
// package in dir, tests included (documents cite tests by name too).
func parseSymbols(t *testing.T, dir string) goSymbols {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, 0)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	syms := goSymbols{}
	members := func(typ string) map[string]bool {
		if syms[typ] == nil {
			syms[typ] = map[string]bool{}
		}
		return syms[typ]
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						syms[d.Name.Name] = nil
						continue
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					switch r := recv.(type) {
					case *ast.IndexExpr:
						recv = r.X
					case *ast.IndexListExpr:
						recv = r.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						members(id.Name)[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								syms[n.Name] = nil
							}
						case *ast.TypeSpec:
							if sp.Assign.IsValid() {
								syms[sp.Name.Name] = nil
								continue
							}
							m := members(sp.Name.Name)
							switch ty := sp.Type.(type) {
							case *ast.StructType:
								for _, field := range ty.Fields.List {
									for _, n := range field.Names {
										m[n.Name] = true
									}
									if len(field.Names) == 0 {
										embedded := field.Type
										if star, ok := embedded.(*ast.StarExpr); ok {
											embedded = star.X
										}
										if sel, ok := embedded.(*ast.SelectorExpr); ok {
											m[sel.Sel.Name] = true
										} else if id, ok := embedded.(*ast.Ident); ok {
											m[id.Name] = true
										}
									}
								}
							case *ast.InterfaceType:
								for _, method := range ty.Methods.List {
									for _, n := range method.Names {
										m[n.Name] = true
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return syms
}

// TestDocSymbolsResolve fails on documentation that names code which no
// longer exists: in every guarded document, each quoted `pkg.Ident` —
// pkg being dixq or a package under internal/ — must be a top-level
// declaration of that package, and a quoted `pkg.Type.Member` must be a
// field or method of that type.
func TestDocSymbolsResolve(t *testing.T) {
	pkgs := map[string]goSymbols{"dixq": parseSymbols(t, ".")}
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if info, err := os.Stat(dir); err == nil && info.IsDir() {
			pkgs[filepath.Base(dir)] = parseSymbols(t, dir)
		}
	}
	names := make([]string, 0, len(pkgs))
	for name := range pkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	ref := regexp.MustCompile(`\b(` + strings.Join(names, "|") + `)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
	checked := 0
	for file, text := range guardedDocs(t) {
		for _, span := range codeSpans(text) {
			for _, m := range ref.FindAllStringSubmatch(span, -1) {
				checked++
				syms := pkgs[m[1]]
				members, ok := syms[m[2]]
				switch {
				case !ok:
					t.Errorf("%s names %s.%s, which package %s does not declare", file, m[1], m[2], m[1])
				case m[3] != "" && members != nil && !members[m[3]]:
					t.Errorf("%s names %s.%s.%s, which is not a field or method of %s.%s", file, m[1], m[2], m[3], m[1], m[2])
				}
			}
		}
	}
	if checked < 20 {
		t.Errorf("checked only %d code references — the pattern no longer matches the documents", checked)
	}
}
