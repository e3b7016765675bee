// Command lint runs the repository's static-analysis suite
// (internal/analyzers) over one or more package patterns and fails on
// findings that are neither suppressed in-source nor grandfathered in
// the baseline file. All sixteen checks run by default. Each check
// reads one scope — the syntax of one file, one type-checked file, one
// function with its control-flow graph, or the whole surface with its
// call graph — and one run parses each file once and pays for type
// checking, the call graph and the CFGs only when a selected check
// needs them.
//
// Usage:
//
//	go run ./cmd/lint [flags] [patterns]
//
//	-checks nodeterm,unitflow  run a subset of checks (default: all)
//	-baseline FILE             baseline of grandfathered findings
//	                           (default .lint-baseline.json; a missing
//	                           file means an empty baseline)
//	-write-baseline            rewrite the baseline from current
//	                           findings and exit 0
//	-prune-baseline            drop baseline entries that no longer
//	                           match any finding, rewrite, and exit 0
//	-format text|json|github   output format; github emits ::error
//	                           workflow annotations for inline PR review
//	-json                      shorthand for -format=json
//	-timing                    print per-check wall time and the
//	                           shared setup stages (parse, typecheck,
//	                           callgraph, cfg) after the run
//	-perfbudget                run the compiler-diagnostics perf budget
//	                           over the //lint:hot packages instead of
//	                           the lint checks
//	-write-perfbudget          regenerate the committed perf budgets
//	                           from current compiler output and exit 0
//	-perfbudget-dir DIR        budget directory (default
//	                           internal/analyzers/testdata/perfbudget)
//	-tables                    validate the committed Tier 2 lookup
//	                           tables (CSV schema, positive numerics,
//	                           sorted unique keys) instead of the lint
//	                           checks; patterns are CSV paths (default
//	                           internal/perfmodel/tables/*.csv)
//	-list                      list available checks and exit
//
// Patterns are directories or go-style recursive patterns such as
// ./... and ./internal/...; the default is ./... from the current
// directory. The exit status is 0 when no new findings exist, 1 when
// at least one does, 2 on usage or I/O errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/analyzers"
	"repro/internal/perfmodel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		checksFlag    = fs.String("checks", "", "comma-separated check IDs to run (default: all)")
		baselineFlag  = fs.String("baseline", ".lint-baseline.json", "baseline file of grandfathered findings")
		writeBaseline = fs.Bool("write-baseline", false, "rewrite the baseline from current findings")
		pruneBaseline = fs.Bool("prune-baseline", false, "drop stale baseline entries and rewrite the baseline")
		formatFlag    = fs.String("format", "text", "output format: text, json or github")
		jsonFlag      = fs.Bool("json", false, "emit findings as JSON (same as -format=json)")
		timingFlag    = fs.Bool("timing", false, "print per-check wall time and setup stage totals")
		perfBudget    = fs.Bool("perfbudget", false, "diff compiler escape/bounds diagnostics of hot packages against committed budgets")
		writeBudget   = fs.Bool("write-perfbudget", false, "regenerate the committed perf budgets and exit")
		budgetDir     = fs.String("perfbudget-dir", "internal/analyzers/testdata/perfbudget", "perf budget directory")
		tablesFlag    = fs.Bool("tables", false, "validate the committed Tier 2 lookup tables")
		listFlag      = fs.Bool("list", false, "list available checks and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	format := *formatFlag
	if *jsonFlag {
		format = "json"
	}
	switch format {
	case "text", "json", "github":
	default:
		fmt.Fprintf(stderr, "lint: unknown format %q (want text, json or github)\n", format)
		return 2
	}

	if *listFlag {
		for _, c := range analyzers.All() {
			fmt.Fprintf(stdout, "%-13s %s\n", c.ID, c.Doc)
		}
		return 0
	}

	if *perfBudget || *writeBudget {
		return runPerfBudget(fs.Args(), *budgetDir, *writeBudget, stdout, stderr)
	}

	if *tablesFlag {
		return runTables(fs.Args(), stdout, stderr)
	}

	var ids []string
	if *checksFlag != "" {
		for _, id := range strings.Split(*checksFlag, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	checks, err := analyzers.Select(ids)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var timings *analyzers.Timings
	if *timingFlag {
		timings = analyzers.CollectTimings()
		defer analyzers.StopTimings()
	}
	res, err := analyzers.Run(fs.Args(), checks)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if timings != nil {
		printTimings(stdout, timings)
	}

	if *pruneBaseline {
		baseline, err := analyzers.LoadBaseline(*baselineFlag)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		pruned, removed := baseline.Prune(res.Diags)
		if err := pruned.Save(*baselineFlag); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stdout, "lint: pruned %d stale entr%s from %s (%d left)\n",
			removed, plural(removed, "y", "ies"), *baselineFlag, len(pruned.Findings))
		return 0
	}

	if *writeBaseline {
		b := analyzers.NewBaseline(res.Diags)
		if err := b.Save(*baselineFlag); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stdout, "lint: wrote %d finding(s) to %s\n", len(b.Findings), *baselineFlag)
		return 0
	}

	baseline, err := analyzers.LoadBaseline(*baselineFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fresh, stale := baseline.Apply(res.Diags)

	switch format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if fresh == nil {
			fresh = []analyzers.Diagnostic{}
		}
		if err := enc.Encode(fresh); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	case "github":
		for _, d := range fresh {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d::%s\n",
				ghProperty(d.File), d.Line, d.Col, ghMessage(fmt.Sprintf("[%s] %s", d.Check, d.Message)))
		}
		fmt.Fprintf(stdout, "lint: %d file(s), %d finding(s) (%d baselined, %d stale baseline entries)\n",
			res.Files, len(fresh), len(res.Diags)-len(fresh), len(stale))
	default:
		for _, d := range fresh {
			fmt.Fprintln(stdout, d)
		}
		for _, e := range stale {
			fmt.Fprintf(stdout, "lint: stale baseline entry (no longer fires): %s [%s] %s\n",
				e.File, e.Check, e.Message)
		}
		fmt.Fprintf(stdout, "lint: %d file(s), %d finding(s) (%d baselined, %d stale baseline entries)\n",
			res.Files, len(fresh), len(res.Diags)-len(fresh), len(stale))
	}
	if len(fresh) > 0 {
		return 1
	}
	return 0
}

// runTables implements -tables: run LoadTable's strict validation
// (exact header, five fields per row, positive numerics, strictly
// sorted unique (system, kernel, points, ranks) keys) over each
// committed lookup CSV. Errors carry line numbers, so a broken table
// fails CI with the offending row named.
func runTables(patterns []string, stdout, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"internal/perfmodel/tables/*.csv"}
	}
	var paths []string
	for _, p := range patterns {
		matches, err := filepath.Glob(p)
		if err != nil {
			fmt.Fprintf(stderr, "lint: tables: bad pattern %q: %v\n", p, err)
			return 2
		}
		if matches == nil && !strings.ContainsAny(p, "*?[") {
			matches = []string{p} // literal path: let the open fail loudly
		}
		paths = append(paths, matches...)
	}
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "lint: tables: no lookup tables matched")
		return 2
	}
	sort.Strings(paths)
	failed := false
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "lint: tables: %v\n", err)
			return 2
		}
		rows, groups, err := perfmodel.ValidateTableCSV(f)
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stdout, "lint: tables: FAIL %s: %v\n", path, err)
			failed = true
			continue
		}
		fmt.Fprintf(stdout, "lint: tables: %s ok (%d row(s), %d group(s))\n", path, rows, groups)
	}
	if failed {
		return 1
	}
	return 0
}

// runPerfBudget implements -perfbudget / -write-perfbudget: collect
// the compiler escape/bounds inventory of every //lint:hot package on
// the surface and either diff it against the committed budgets or
// rewrite them.
func runPerfBudget(patterns []string, dir string, write bool, stdout, stderr io.Writer) int {
	pkgs, err := analyzers.Load(patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	hot := analyzers.HotPackages(pkgs)
	if len(hot) == 0 {
		fmt.Fprintln(stdout, "lint: perfbudget: no //lint:hot packages on the surface")
		return 0
	}
	modRoot, err := analyzers.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	failed := false
	for _, pkg := range hot {
		inv, err := analyzers.CollectPerfInventory(modRoot, pkg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		path := filepath.Join(dir, analyzers.BudgetFileName(pkg.Path))
		if write {
			if err := inv.Save(path); err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			fmt.Fprintf(stdout, "lint: perfbudget: wrote %s (%d hot function(s))\n", path, len(inv.Functions))
			continue
		}
		budget, err := analyzers.LoadPerfBudget(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		failures, improvements := analyzers.DiffPerfBudget(budget, inv)
		for _, f := range failures {
			fmt.Fprintf(stdout, "lint: perfbudget: FAIL %s\n", f)
			failed = true
		}
		for _, imp := range improvements {
			fmt.Fprintf(stdout, "lint: perfbudget: note %s\n", imp)
		}
		if len(failures) == 0 {
			fmt.Fprintf(stdout, "lint: perfbudget: %s within budget (%d hot function(s))\n", pkg.Path, len(inv.Functions))
		}
	}
	if failed {
		return 1
	}
	return 0
}

// printTimings renders the setup-stage and per-check wall times of one
// run, slowest first.
func printTimings(w io.Writer, t *analyzers.Timings) {
	type row struct {
		name string
		d    time.Duration
	}
	render := func(kind string, m map[string]time.Duration) {
		rows := make([]row, 0, len(m))
		for name, d := range m {
			rows = append(rows, row{name, d})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].d != rows[j].d {
				return rows[i].d > rows[j].d
			}
			return rows[i].name < rows[j].name
		})
		for _, r := range rows {
			fmt.Fprintf(w, "lint: timing %s %-13s %12s\n", kind, r.name, r.d.Round(time.Microsecond))
		}
	}
	render("stage", t.Stages())
	render("check", t.Checks())
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// ghMessage escapes a workflow-annotation message per the GitHub
// Actions command syntax.
func ghMessage(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// ghProperty escapes a workflow-annotation property value.
func ghProperty(s string) string {
	s = ghMessage(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
