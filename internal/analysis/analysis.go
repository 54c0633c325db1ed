// Package analysis is a self-contained, stdlib-only substitute for the
// golang.org/x/tools/go/analysis framework, sized for this repository's
// needs: an Analyzer is a named Run function over one type-checked
// package, diagnostics carry positions, and `//cosimvet:ignore`
// directives suppress individual findings.
//
// The x/tools module is deliberately not a dependency — the repo builds
// with a bare module cache — so the cosimvet analyzers (detsafe,
// schemeerr, timesafe) and the cmd/cosimvet multichecker are written
// against this package instead. The API
// mirrors go/analysis closely enough that porting to the real framework
// is a mechanical change if the dependency ever becomes available.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis rule.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //cosimvet:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of what the rule enforces.
	Doc string
	// Run applies the rule to one package, reporting findings through
	// pass.Report. The returned value is unused (kept for go/analysis
	// API symmetry).
	Run func(pass *Pass) (any, error)
}

// Pass carries one type-checked package through an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled in by Run
}

// Run applies each analyzer to the package and returns the surviving
// diagnostics (ignore directives applied), sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	ignores := collectIgnores(pkg)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			d.Analyzer = name
			if !ignores.suppressed(pkg.Fset.Position(d.Pos), name) {
				out = append(out, d)
			}
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// ignoreRe matches suppression directives:
//
//	//cosimvet:ignore <rule>[,<rule>...] <reason>
//	//lint:ignore cosimvet/<rule> <reason>
//
// A directive suppresses matching diagnostics on its own line and on
// the next line, so it works both as a trailing comment and as a
// comment above the flagged statement.
var ignoreRe = regexp.MustCompile(`//\s*(?:cosimvet:ignore|lint:ignore\s+cosimvet/)\s*([\w,/-]+)\s+\S`)

type ignoreSet map[string]map[int][]string // file -> line -> rule names

func (s ignoreSet) suppressed(pos token.Position, rule string) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, r := range lines[l] {
			if r == rule || r == "all" {
				return true
			}
		}
	}
	return false
}

func collectIgnores(pkg *Package) ignoreSet {
	set := make(ignoreSet)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := set[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					set[pos.Filename] = lines
				}
				rules := strings.Split(strings.TrimPrefix(m[1], "cosimvet/"), ",")
				lines[pos.Line] = append(lines[pos.Line], rules...)
			}
		}
	}
	return set
}

// NamedType reports whether t (after pointer indirection) is the named
// type pkgPathSuffix.name, matching the package by path suffix so the
// check works both on the real repo packages and on test fixtures that
// import them.
func NamedType(t types.Type, pkgPathSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(obj.Pkg().Path(), pkgPathSuffix)
}

// EnclosingFuncs pairs every function body in the package (declarations
// only, not literals) with its declaration, for analyzers that need the
// enclosing function's identity.
func EnclosingFuncs(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}
