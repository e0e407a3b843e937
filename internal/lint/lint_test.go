package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the quoted regexps of a `// want "..." "..."` comment.
var wantRe = regexp.MustCompile(`"([^"]*)"`)

// runFixture type-checks one testdata file under the given import path,
// runs the analyzer, and compares the diagnostics against the fixture's
// `// want` comments: every diagnostic must match a want on its line and
// every want must be consumed, in the style of analysistest.
func runFixture(t *testing.T, a *Analyzer, file, importPath string) {
	t.Helper()
	fset := token.NewFileSet()
	path := filepath.Join("testdata", file)
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	info := newTypesInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(importPath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	pkg := &Package{
		ImportPath: importPath,
		Dir:        "testdata",
		Fset:       fset,
		Files:      []*ast.File{f},
		Types:      tpkg,
		TypesInfo:  info,
	}
	if a.Applies != nil && !a.Applies(importPath) {
		t.Fatalf("analyzer %s does not apply to fixture path %s", a.Name, importPath)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	wants := collectWants(t, fset, f)
	for _, d := range diags {
		if !consumeWant(wants, d.Pos.Line, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", file, d)
		}
	}
	for line, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q did not fire", file, line, re)
		}
	}
}

// collectWants maps line → pending want regexps.
func collectWants(t *testing.T, fset *token.FileSet, f *ast.File) map[int][]string {
	t.Helper()
	wants := make(map[int][]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			body := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(body, "want ")
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
				if _, err := regexp.Compile(m[1]); err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				wants[line] = append(wants[line], m[1])
			}
		}
	}
	return wants
}

func consumeWant(wants map[int][]string, line int, message string) bool {
	for i, re := range wants[line] {
		if regexp.MustCompile(re).MatchString(message) {
			wants[line] = append(wants[line][:i], wants[line][i+1:]...)
			if len(wants[line]) == 0 {
				delete(wants, line)
			}
			return true
		}
	}
	return false
}

func TestNonDetermFixture(t *testing.T) {
	runFixture(t, NonDeterm, "nondeterm.go", "dtdctcp/internal/sim/fixture")
}

func TestMapOrderFixture(t *testing.T) {
	runFixture(t, MapOrder, "maporder.go", "dtdctcp/internal/netsim/fixture")
}

func TestFloatCmpFixture(t *testing.T) {
	runFixture(t, FloatCmp, "floatcmp.go", "dtdctcp/internal/control/fixture")
}

func TestSimTimeFixture(t *testing.T) {
	runFixture(t, SimTime, "simtime.go", "dtdctcp/internal/lint/fixture")
}

func TestHotAllocFixture(t *testing.T) {
	runFixture(t, HotAlloc, "hotalloc.go", "dtdctcp/internal/sim/fixture")
}

func TestPktLifeFixture(t *testing.T) {
	runFixture(t, PktLife, "pktlife.go", "dtdctcp/internal/netsim/fixture")
}

func TestDetFlowFixture(t *testing.T) {
	runFixture(t, DetFlow, "detflow.go", "dtdctcp/internal/sim/fixture")
}

func TestSoloEngineFixture(t *testing.T) {
	runFixture(t, SoloEngine, "soloengine.go", "dtdctcp/internal/sim/fixture")
}

// TestScoping pins each analyzer's package filter: the suite must bite in
// the simulator packages and stay out of the ones where the flagged
// patterns are legitimate.
func TestScoping(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		path     string
		want     bool
	}{
		{NonDeterm, "dtdctcp/internal/sim", true},
		{NonDeterm, "dtdctcp/internal/tcp", true},
		{NonDeterm, "dtdctcp/internal/stats", false},
		{NonDeterm, "dtdctcp/internal/lint", false},
		{MapOrder, "dtdctcp/internal/netsim", true},
		{MapOrder, "dtdctcp/internal/workload", true},
		{MapOrder, "dtdctcp/internal/fluid", false},
		{FloatCmp, "dtdctcp/internal/control", true},
		{FloatCmp, "dtdctcp/internal/fluid", true},
		{FloatCmp, "dtdctcp/internal/netsim", false},
		{PktLife, "dtdctcp/internal/netsim", true},
		{PktLife, "dtdctcp/internal/sim", true},
		{PktLife, "dtdctcp/internal/aqm", false},
		{PktLife, "dtdctcp/internal/stats", false},
		{DetFlow, "dtdctcp/internal/sim", true},
		{DetFlow, "dtdctcp/internal/aqm", true},
		{DetFlow, "dtdctcp/internal/runner", false},
		{SoloEngine, "dtdctcp/internal/netsim", true},
		{SoloEngine, "dtdctcp/internal/chaos", true},
		{SoloEngine, "dtdctcp/internal/runner", false},
		{SoloEngine, "dtdctcp/internal/workload", false},
	}
	for _, c := range cases {
		if got := c.analyzer.Applies(c.path); got != c.want {
			t.Errorf("%s.Applies(%q) = %v, want %v", c.analyzer.Name, c.path, got, c.want)
		}
	}
	if SimTime.Applies != nil {
		t.Error("simtime must apply everywhere sim.Time flows; expected nil Applies")
	}
	if HotAlloc.Applies != nil {
		t.Error("hotalloc scopes by //dtlint:hotpath annotation, not package; expected nil Applies")
	}
	if len(Analyzers()) != 8 {
		t.Errorf("suite size = %d, want 8", len(Analyzers()))
	}
}

// TestAllowIndex pins the coverage rule: an annotation suppresses on its
// own line and the line directly below it, for every listed analyzer.
func TestAllowIndex(t *testing.T) {
	src := `package p

//dtlint:allow nondeterm,maporder: two analyzers at once
var a int

var b int //dtlint:allow floatcmp -- same line, legacy separator
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx, diags := buildAllowIndex(fset, []*ast.File{f})
	if len(diags) != 0 {
		t.Fatalf("well-formed annotations produced diagnostics: %v", diags)
	}
	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{3, "nondeterm", true},  // annotation's own line
		{4, "nondeterm", true},  // line below
		{4, "maporder", true},   // second name of the list
		{5, "nondeterm", false}, // two lines below: out of range
		{6, "floatcmp", true},   // same-line placement
		{4, "floatcmp", false},
		{3, "simtime", false}, // analyzer not listed
	}
	for _, c := range cases {
		pos := token.Position{Filename: "p.go", Line: c.line}
		if got := idx.allows(pos, c.analyzer); got != c.want {
			t.Errorf("allows(line %d, %q) = %v, want %v", c.line, c.analyzer, got, c.want)
		}
	}
}

// TestParseAllowComment pins the annotation grammar itself.
func TestParseAllowComment(t *testing.T) {
	cases := []struct {
		text   string
		names  []string
		reason string
		ok     bool
	}{
		{"//dtlint:allow nondeterm: seeded root", []string{"nondeterm"}, "seeded root", true},
		{"//dtlint:allow a,b -- legacy", []string{"a", "b"}, "legacy", true},
		{"//dtlint:allow a, b :  spaced ", []string{"a", "b"}, "spaced", true},
		{"//dtlint:allow a-b: hyphenated name", []string{"a-b"}, "hyphenated name", true},
		{"//dtlint:allow x: reason: with colons", []string{"x"}, "reason: with colons", true},
		{"//dtlint:allow maporder -- note: earliest separator wins", []string{"maporder"}, "note: earliest separator wins", true},
		{"//dtlint:allow", nil, "", true},                            // malformed: no names, no reason
		{"//dtlint:allow hotalloc:", []string{"hotalloc"}, "", true}, // malformed: empty reason
		{"//dtlint:allow : orphan reason", nil, "orphan reason", true},
		{"//dtlint:allowance is a word", nil, "", false},
		{"// ordinary comment", nil, "", false},
		{"//dtlint:hotpath", nil, "", false},
	}
	for _, c := range cases {
		names, reason, ok := parseAllowComment(c.text)
		if ok != c.ok || reason != c.reason || strings.Join(names, "|") != strings.Join(c.names, "|") {
			t.Errorf("parseAllowComment(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.text, names, reason, ok, c.names, c.reason, c.ok)
		}
	}
}

// TestAllowDiagnostics pins the reason requirement: malformed annotations
// suppress nothing and surface as framework diagnostics under "allow".
func TestAllowDiagnostics(t *testing.T) {
	src := `package p

//dtlint:allow nondeterm
var a int

//dtlint:allow
var b int

//dtlint:allow nosuchcheck: imaginary analyzer
var c int

//dtlint:allow maporder: fine as is
var d int
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx, diags := buildAllowIndex(fset, []*ast.File{f})
	if len(diags) != 3 {
		t.Fatalf("diagnostics = %d (%v), want 3 (reasonless, nameless, unknown name)", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != allowDiagAnalyzer {
			t.Errorf("diagnostic analyzer = %q, want %q", d.Analyzer, allowDiagAnalyzer)
		}
	}
	if msgs := fmt.Sprint(diags); !strings.Contains(msgs, "without a reason") ||
		!strings.Contains(msgs, "names no analyzer") ||
		!strings.Contains(msgs, "unknown analyzer") {
		t.Errorf("diagnostics missing expected messages: %v", diags)
	}
	// The reasonless annotation must not have entered the index…
	if idx.allows(token.Position{Filename: "p.go", Line: 4}, "nondeterm") {
		t.Error("reasonless annotation suppressed a finding")
	}
	// …while the well-formed one did.
	if !idx.allows(token.Position{Filename: "p.go", Line: 13}, "maporder") {
		t.Error("well-formed annotation missing from the index")
	}
}

// TestHotIndex pins the //dtlint:hotpath placement rules: doc comment or
// line above for declarations, own line or line above for literals.
func TestHotIndex(t *testing.T) {
	src := `package p

// hotDoc is pinned by its doc comment.
//dtlint:hotpath
func hotDoc() {}

//dtlint:hotpath
func hotLineAbove() {}

func cold() {}

var fns []func()

func install() {
	//dtlint:hotpath
	fns = append(fns, func() {})
	fns = append(fns, func() {})
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := newTypesInfo()
	conf := types.Config{}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{
		Fset:      fset,
		Files:     []*ast.File{f},
		Pkg:       tpkg,
		TypesInfo: info,
	}
	var names []string
	for _, hf := range pass.HotFuncs() {
		names = append(names, hf.Name)
	}
	want := "hotDoc,hotLineAbove,func literal"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("HotFuncs = %q, want %q (cold and the unmarked literal excluded)", got, want)
	}
}

// TestDiagnosticString pins the file:line:col output format CI logs rely
// on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Analyzer: "nondeterm",
		Message:  "bad",
	}
	if got, want := d.String(), "x.go:3:7: bad (nondeterm)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	_ = fmt.Sprintf("%s", d) // Stringer must satisfy fmt
}
