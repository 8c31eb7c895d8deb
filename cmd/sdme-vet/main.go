// Command sdme-vet runs the repository's custom static analyzers
// (internal/lint) over module packages, in the style of a go/analysis
// multichecker but with no dependency outside the standard library.
//
// Usage:
//
//	sdme-vet [patterns ...]
//
// Patterns default to ./... and accept the usual forms (./internal/live,
// ./..., sdme/internal/...). Files are selected for the GOOS/GOARCH in
// the environment, as `go build` would, so `GOOS=darwin sdme-vet` checks
// the non-Linux variants. The exit status is 1 when any diagnostic is
// reported and 2 when a package fails to load or type-check, so CI can
// gate on it. Findings are suppressed per line with a
// `//vet:ignore <analyzer>` comment on the offending line or the line
// above it.
package main

import (
	"fmt"
	"os"
	"strings"

	"sdme/internal/lint"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdme-vet:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(patterns []string) (int, error) {
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			return 0, fmt.Errorf("unknown flag %s: sdme-vet takes package patterns only", p)
		}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		return 0, err
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return 0, err
	}
	diags, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		return 0, err
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "sdme-vet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1, nil
	}
	return 0, nil
}
