// Command perspective-lint is the multichecker driver for the simulator's
// invariant analyzers: determinism (no ambient time/randomness or unordered
// map emission in internal/ packages), errwrap (context-wrapped error
// propagation), and confine (one table of confinement rules: speculative
// memory reads only through the DSV/ISV-checked accessors, the L0
// line-lookaside micro-cache only from the committed path, and the
// direct-map fast path's privilege mirror and raw hit only in their owners).
// See DESIGN.md §8 for the rules and the //lint:allow escape hatch.
//
// Usage:
//
//	perspective-lint [-C dir] [-json] [packages]
//
// Packages default to ./... . Exit status: 0 clean, 1 findings reported,
// 2 the lint run itself failed (bad patterns, type errors, broken checker).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/confine"
	"repro/internal/lint/determinism"
	"repro/internal/lint/errwrap"
	"repro/internal/lint/load"
)

// analyzers is the perspective-lint suite, in report order.
var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	errwrap.Analyzer,
	confine.Analyzer,
}

func main() {
	os.Exit(run())
}

func run() int {
	dir := flag.String("C", ".", "change to `dir` before loading packages")
	jsonOut := flag.Bool("json", false, "emit vet-style JSON instead of plain text")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: perspective-lint [-C dir] [-json] [packages]\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perspective-lint: %v\n", err)
		return 2
	}
	findings, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perspective-lint: %v\n", err)
		return 2
	}
	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, findings); err != nil {
			fmt.Fprintf(os.Stderr, "perspective-lint: %v\n", err)
			return 2
		}
	} else {
		lint.WriteText(os.Stdout, findings)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
