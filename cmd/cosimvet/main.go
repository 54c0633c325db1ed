// Command cosimvet runs the repository's domain-specific static
// analyzers (poolsafe, timesafe, obsnames, schemeerr, lockedfield,
// transportclose, ctxfirst, and the interprocedural lockorder and
// detsafe) over module packages and exits non-zero if any rule fires.
//
// Usage:
//
//	go run ./cmd/cosimvet [flags] [packages]
//
// Packages are directories or the literal pattern ./... (the default),
// which expands to every package of the enclosing module. The tool must
// run from inside the module: the loader type-checks dependencies from
// source and resolves module-local import paths through the go command.
//
// Flags:
//
//	-list          print the analyzers and their docs, then exit
//	-run name,...  run only the named analyzers
//	-json          print findings as a JSON array on stdout
//
// In -json mode every finding becomes an object with file, line, col,
// message, analyzer, and package fields; the array is printed even when
// empty so consumers can parse unconditionally. Exit codes are the same
// as in plain mode (1 = findings, 2 = usage or load error).
//
// Individual findings can be suppressed with a trailing or preceding
// comment:
//
//	//cosimvet:ignore <rule> <reason>
//	//lint:ignore cosimvet/<rule> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cosim/internal/analysis"
	"cosim/internal/analysis/suite"
)

// finding is the JSON shape of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
	Package  string `json:"package"`
}

func main() {
	listFlag := flag.Bool("list", false, "print the analyzers and their docs, then exit")
	runFlag := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	jsonFlag := flag.Bool("json", false, "print findings as a JSON array on stdout")
	flag.Parse()

	analyzers := suite.Analyzers()
	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}
	if *runFlag != "" {
		var picked []*analysis.Analyzer
		for _, name := range strings.Split(*runFlag, ",") {
			name = strings.TrimSpace(name)
			a := suite.ByName(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "cosimvet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			picked = append(picked, a)
		}
		analyzers = picked
	}

	pkgs, err := resolvePackages(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "cosimvet: %v\n", err)
		os.Exit(2)
	}

	findings := []finding{}
	for _, p := range pkgs {
		loaded, err := analysis.LoadDir(p.Dir, p.ImportPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosimvet: %v\n", err)
			os.Exit(2)
		}
		diags, err := analysis.Run(loaded, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosimvet: %v\n", err)
			os.Exit(2)
		}
		for _, d := range diags {
			pos := loaded.Fset.Position(d.Pos)
			findings = append(findings, finding{
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Message:  d.Message,
				Analyzer: d.Analyzer,
				Package:  p.ImportPath,
			})
			if !*jsonFlag {
				fmt.Printf("%s: %s (%s)\n", pos, d.Message, d.Analyzer)
			}
		}
	}
	if *jsonFlag {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "cosimvet: %v\n", err)
			os.Exit(2)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "cosimvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// resolvePackages expands the command-line package arguments. "./..."
// (or no arguments) means every package in the enclosing module; other
// arguments name package directories relative to the working directory.
func resolvePackages(args []string) ([]analysis.PackageDir, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root, modPath, err := analysis.ModuleRoot(wd)
	if err != nil {
		return nil, err
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var out []analysis.PackageDir
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			pkgs, err := analysis.ModulePackages(root, modPath)
			if err != nil {
				return nil, err
			}
			out = append(out, pkgs...)
			continue
		}
		dir, err := filepath.Abs(arg)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("package %s is outside module %s", arg, modPath)
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		out = append(out, analysis.PackageDir{Dir: dir, ImportPath: ip})
	}
	return out, nil
}
