// Command nestlint runs the repository's static-analysis suite
// (internal/analysis): the determinism, zero-overhead-observability
// and concurrency contracts described in docs/ANALYSIS.md.
//
// Standalone:
//
//	go run ./cmd/nestlint [-json|-sarif] [-unused-directives] [packages...]   (default ./...)
//
// As a go vet tool (analyzes test files' packages too, but the suite
// skips *_test.go sources by design):
//
//	go build -o nestlint ./cmd/nestlint
//	go vet -vettool=$(pwd)/nestlint ./...
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	// go vet probes -V=full before anything else; handle the
	// unitchecker-style protocol flags before normal parsing.
	if len(os.Args) == 2 {
		switch os.Args[1] {
		case "-V=full", "--V=full":
			// Format required by cmd/go's tool-ID probe:
			// "<name> version <id>".
			fmt.Printf("nestlint version %s\n", analysis.Version)
			return
		case "-flags", "--flags":
			// go vet asks which analyzer flags the tool accepts.
			fmt.Println("[]")
			return
		}
	}
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(vetUnit(os.Args[1]))
	}

	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON on stdout")
	sarifOut := flag.Bool("sarif", false, "emit diagnostics as SARIF 2.1.0 on stdout")
	unusedDirectives := flag.Bool("unused-directives", false, "also report //lint: comments that suppress nothing")
	list := flag.Bool("list", false, "list analyzers and their contracts")
	dir := flag.String("C", ".", "directory to run `go list` from (module root)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nestlint [-json|-sarif] [-unused-directives] [-list] [-C dir] [packages...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "nestlint: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}

	if *list {
		for _, a := range analysis.Suite() {
			fmt.Printf("%-15s %s\n", a.Name, a.Contract)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags := analysis.RunAnalyzers(pkgs, analysis.Suite())

	if *unusedDirectives {
		// Stale-allowlist detection needs the analyzers' Used marks, so
		// it always follows the full suite run; one pass covers every
		// //lint: comment in the loaded packages.
		diags = append(diags, analysis.UnusedDirectives(pkgs)...)
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	case *sarifOut:
		base, err := filepath.Abs(*dir)
		if err != nil {
			base = *dir
		}
		if err := analysis.WriteSARIF(os.Stdout, base, analysis.Suite(), diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	default:
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", d.Pos, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
