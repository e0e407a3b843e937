package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// This file implements the dtlint annotation vocabulary:
//
//	//dtlint:allow analyzer[,analyzer...]: reason   suppress findings (reason required)
//	//dtlint:allow analyzer[,analyzer...] -- reason legacy separator, still accepted
//	//dtlint:hotpath                                mark a function as a zero-alloc hot path
//
// An allow annotation covers its own line and the line directly below it.
// A hotpath annotation marks the function declaration it documents (any
// line of the doc comment) or, for function literals, the line directly
// above the literal.

const (
	allowMarker   = "dtlint:allow"
	hotpathMarker = "dtlint:hotpath"
)

// parseAllowComment parses the body of one comment (with or without the
// leading "//"). It returns the analyzer names and the justification.
// ok is false when the comment is not an allow annotation at all;
// a malformed annotation (no names, or no non-empty reason) returns
// ok=true with an empty names list or empty reason, so callers can
// distinguish "not an annotation" from "broken annotation".
func parseAllowComment(text string) (names []string, reason string, ok bool) {
	body := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), "//"))
	rest, found := strings.CutPrefix(body, allowMarker)
	if !found {
		return nil, "", false
	}
	// The marker must end the word: "dtlint:allowance" is not an annotation.
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' && rest[0] != ':' {
		return nil, "", false
	}
	// Names run until the first separator — ":" (canonical) or "--"
	// (legacy), whichever comes first — and the reason is everything after
	// it. Earliest-wins keeps the grammar unambiguous when a reason itself
	// contains the other separator.
	namePart := rest
	ci := strings.IndexByte(rest, ':')
	di := strings.Index(rest, "--")
	switch {
	case ci >= 0 && (di < 0 || ci < di):
		namePart, reason = rest[:ci], rest[ci+1:]
	case di >= 0:
		namePart, reason = rest[:di], rest[di+2:]
	}
	for _, n := range strings.Split(namePart, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, strings.TrimSpace(reason), true
}

// allowIndex maps filename → line → analyzer names a well-formed
// //dtlint:allow annotation covers. An annotation covers its own line and
// the line directly below it, so both same-line and line-above placements
// work.
type allowIndex map[string]map[int]map[string]bool

func (ai allowIndex) allows(pos token.Position, analyzer string) bool {
	lines := ai[pos.Filename]
	if lines == nil {
		return false
	}
	return lines[pos.Line][analyzer] || lines[pos.Line-1][analyzer]
}

// allowDiagAnalyzer names the framework's own annotation checks in
// diagnostics. It is not a member of Analyzers(): the checks run
// unconditionally as part of every Run, and their findings cannot be
// suppressed by the very grammar they police.
const allowDiagAnalyzer = "allow"

// buildAllowIndex scans the files' comments for //dtlint:allow
// annotations. Only well-formed annotations — at least one analyzer name
// and a non-empty reason — enter the index; malformed ones suppress
// nothing and come back as diagnostics, as do names that match no
// analyzer in the suite.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) (allowIndex, []Diagnostic) {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	idx := make(allowIndex)
	var diags []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, reason, ok := parseAllowComment(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if len(names) == 0 {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: allowDiagAnalyzer,
						Message:  "dtlint:allow names no analyzer; write //dtlint:allow <analyzer>: <reason>",
					})
					continue
				}
				if reason == "" {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: allowDiagAnalyzer,
						Message:  "dtlint:allow without a reason suppresses nothing; write //dtlint:allow " + strings.Join(names, ",") + ": <why this finding is acceptable>",
					})
					continue
				}
				for _, n := range names {
					if !known[n] {
						diags = append(diags, Diagnostic{
							Pos:      pos,
							Analyzer: allowDiagAnalyzer,
							Message:  "dtlint:allow names unknown analyzer " + strconvQuote(n) + "; the suite has no such check",
						})
					}
				}
				lines := idx[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					idx[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = make(map[string]bool)
					lines[pos.Line] = set
				}
				for _, n := range names {
					set[n] = true
				}
			}
		}
	}
	return idx, diags
}

// strconvQuote is a tiny local quote helper so annot.go needs no strconv
// import churn in callers; it only handles the diagnostic message case.
func strconvQuote(s string) string { return `"` + s + `"` }

// hotIndex records which functions carry a //dtlint:hotpath annotation.
type hotIndex struct {
	// markerLines maps filename → set of lines bearing the marker.
	markerLines map[string]map[int]bool
}

// buildHotIndex scans all comments for //dtlint:hotpath markers.
func buildHotIndex(fset *token.FileSet, files []*ast.File) *hotIndex {
	hi := &hotIndex{markerLines: make(map[string]map[int]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if body != hotpathMarker && !strings.HasPrefix(body, hotpathMarker+" ") {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := hi.markerLines[pos.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					hi.markerLines[pos.Filename] = lines
				}
				lines[pos.Line] = true
			}
		}
	}
	return hi
}

// hotDecl reports whether a function declaration is hotpath-annotated:
// the marker appears in its doc comment or on the line directly above
// the declaration.
func (hi *hotIndex) hotDecl(fset *token.FileSet, fd *ast.FuncDecl) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			body := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if body == hotpathMarker || strings.HasPrefix(body, hotpathMarker+" ") {
				return true
			}
		}
	}
	pos := fset.Position(fd.Pos())
	return hi.markerLines[pos.Filename][pos.Line-1]
}

// hotLit reports whether a function literal is hotpath-annotated: the
// marker sits on the literal's own line or the line directly above it
// (literals have no doc comments, so the marker rides the statement that
// stores them).
func (hi *hotIndex) hotLit(fset *token.FileSet, lit *ast.FuncLit) bool {
	pos := fset.Position(lit.Pos())
	lines := hi.markerLines[pos.Filename]
	return lines[pos.Line] || lines[pos.Line-1]
}

// hotFunc is one hotpath-annotated function: a declaration or a literal.
type hotFunc struct {
	// Name labels the function in diagnostics ("Engine.Schedule", or
	// "func literal" for an anonymous one).
	Name string
	// Body is the function body to analyze.
	Body *ast.BlockStmt
	// Node is the FuncDecl or FuncLit itself.
	Node ast.Node
}

// HotFuncs returns every hotpath-annotated function of the pass's package
// in file order: declarations whose doc (or preceding line) carries
// //dtlint:hotpath, and function literals with the marker on or directly
// above their first line.
func (p *Pass) HotFuncs() []hotFunc {
	hi := p.hot
	if hi == nil {
		hi = buildHotIndex(p.Fset, p.Files)
		p.hot = hi
	}
	var out []hotFunc
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil && hi.hotDecl(p.Fset, fn) {
					out = append(out, hotFunc{Name: funcDeclName(fn), Body: fn.Body, Node: fn})
				}
			case *ast.FuncLit:
				if hi.hotLit(p.Fset, fn) {
					out = append(out, hotFunc{Name: "func literal", Body: fn.Body, Node: fn})
				}
			}
			return true
		})
	}
	return out
}

// funcDeclName renders "Recv.Name" for methods and "Name" for functions.
func funcDeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
