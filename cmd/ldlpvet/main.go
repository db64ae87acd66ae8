// Command ldlpvet runs the repo's custom static analyzers (see
// internal/lint) over the tree: mbufown, hotpathalloc, quiescence,
// atomiccounter, lockorder, determinism, and shardaffinity. It is the
// static half of the invariant story — the chaos and race suites catch
// violations at runtime, ldlpvet rejects them at review time.
//
// Usage:
//
//	ldlpvet [-only name,name] [-list] [-json] [-github] [-v] [packages]
//
// Packages default to ./... relative to the current directory. Exit
// status: 0 clean, 1 findings, 2 load or usage error.
//
// -json replaces the text output with a JSON array of findings
// ({file, line, col, analyzer, message, chain}); -github additionally
// emits GitHub Actions ::error annotations so findings land inline on
// pull-request diffs; -v reports where the time went (go list vs
// type-check vs analysis).
//
// Suppress a finding with a justified directive on the same line or the
// line above:
//
//	//lint:ignore <analyzer> <reason why the invariant does not apply>
//
// The reason is mandatory; a bare ignore is itself a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ldlp/internal/lint"
)

// jsonFinding is the stable machine-readable schema for one finding.
// Tooling (CI annotators, editors) keys on these field names; changing
// them is a breaking change guarded by TestJSONSchema.
type jsonFinding struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Chain    []string `json:"chain,omitempty"`
}

// writeJSON encodes diags as a JSON array (never null: an empty run
// yields []).
func writeJSON(w io.Writer, diags []lint.Diagnostic) error {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Chain:    d.Chain,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// writeGitHub emits one workflow command per finding so GitHub renders
// it as an inline annotation on the pull-request diff.
func writeGitHub(w io.Writer, diags []lint.Diagnostic) {
	for _, d := range diags {
		msg := d.Analyzer + ": " + d.Message
		// Workflow-command data is %-encoded; newlines cannot appear
		// literally.
		msg = strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(msg)
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d::%s\n",
			d.Pos.Filename, d.Pos.Line, d.Pos.Column, msg)
	}
}

func main() {
	var (
		only    = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		list    = flag.Bool("list", false, "list analyzers and exit")
		asJSON  = flag.Bool("json", false, "emit findings as a JSON array instead of text")
		gha     = flag.Bool("github", false, "also emit GitHub Actions ::error annotations")
		verbose = flag.Bool("v", false, "report load vs analysis timing on stderr")
	)
	flag.Parse()

	analyzers := lint.DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var kept []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				kept = append(kept, a)
				delete(want, a.Name)
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "ldlpvet: unknown analyzer %q\n", name)
			os.Exit(2)
		}
		analyzers = kept
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ldlpvet: %v\n", err)
		os.Exit(2)
	}
	pkgs, fset, stats, err := lint.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ldlpvet: %v\n", err)
		os.Exit(2)
	}
	analysisStart := time.Now()
	diags, err := lint.Run(fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ldlpvet: %v\n", err)
		os.Exit(2)
	}
	analysisTime := time.Since(analysisStart)
	if *verbose {
		fmt.Fprintf(os.Stderr, "ldlpvet: list %v, check %v, analysis %v, %d package(s)\n",
			stats.List.Round(time.Millisecond),
			stats.Check.Round(time.Millisecond),
			analysisTime.Round(time.Millisecond), len(pkgs))
	}

	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
	if *asJSON {
		if err := writeJSON(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "ldlpvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *gha {
		writeGitHub(os.Stdout, diags)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ldlpvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
