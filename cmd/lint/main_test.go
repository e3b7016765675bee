package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analyzers"
)

// gorleakFixture is a directory with exactly two known findings.
var gorleakFixture = filepath.Join("..", "..", "internal", "analyzers", "testdata", "gorleak", "dirty")

func runLint(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListFlag(t *testing.T) {
	code, out, _ := runLint("-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, id := range []string{
		"nodeterm", "unitsuffix", "floateq", "droppederr", "lockbalance", "gorleak", "spanend",
		"unitflow", "typeassert", "lossyconv",
		"ctxflow", "lockheld", "detertaint",
		"hotpath", "nilerr", "useafterfinal",
	} {
		if !strings.Contains(out, id) {
			t.Errorf("-list output missing %q", id)
		}
	}
	// One table: a line per check, sorted by ID.
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 16 {
		t.Fatalf("-list printed %d lines, want 16:\n%s", len(lines), out)
	}
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Errorf("-list not sorted: %q before %q", lines[i-1], lines[i])
		}
	}
}

func TestUnknownCheckIsUsageError(t *testing.T) {
	code, _, errOut := runLint("-checks", "bogus", gorleakFixture)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown check") {
		t.Errorf("stderr %q does not name the unknown check", errOut)
	}
}

func TestFindingsFailTheRun(t *testing.T) {
	code, out, _ := runLint("-checks", "gorleak", gorleakFixture)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "dirty.go") || !strings.Contains(out, "gorleak") {
		t.Errorf("output does not report the dirty.go findings:\n%s", out)
	}
	if !strings.Contains(out, "2 finding(s)") {
		t.Errorf("summary line missing or wrong:\n%s", out)
	}
}

func TestJSONOutput(t *testing.T) {
	code, out, _ := runLint("-checks", "gorleak", "-json", gorleakFixture)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var diags []analyzers.Diagnostic
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("-json output is not a diagnostic array: %v\n%s", err, out)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2", len(diags))
	}
}

func TestGitHubFormat(t *testing.T) {
	code, out, _ := runLint("-checks", "gorleak", "-format", "github", gorleakFixture)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	// The fixture path contains no characters needing property escaping,
	// so the annotation must carry it verbatim alongside line and column.
	if !strings.Contains(out, "::error file=") || !strings.Contains(out, ",line=") {
		t.Errorf("-format=github output carries no workflow annotations:\n%s", out)
	}
	if !strings.Contains(out, "[gorleak]") {
		t.Errorf("annotation message does not name the check:\n%s", out)
	}
}

func TestGitHubEscaping(t *testing.T) {
	if got := ghMessage("50% done\nnext"); got != "50%25 done%0Anext" {
		t.Errorf("ghMessage = %q", got)
	}
	if got := ghProperty("a:b,c%d"); got != "a%3Ab%2Cc%25d" {
		t.Errorf("ghProperty = %q", got)
	}
}

func TestUnknownFormatIsUsageError(t *testing.T) {
	code, _, errOut := runLint("-format", "yaml", gorleakFixture)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown format") {
		t.Errorf("stderr %q does not name the unknown format", errOut)
	}
}

func TestTypedCheckSelection(t *testing.T) {
	dirty := filepath.Join("..", "..", "internal", "analyzers", "testdata", "typeassert", "dirty")
	code, out, _ := runLint("-checks", "typeassert", dirty)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "bare type assertion") {
		t.Errorf("typed findings missing from output:\n%s", out)
	}
}

// TestBadIgnoreUnderAnySelection pins that a malformed //lint:ignore is
// reported whichever checks run, not only when a syntactic one does.
func TestBadIgnoreUnderAnySelection(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "analyzers", "testdata", "suppress")
	code, out, _ := runLint("-checks", "typeassert", fixture)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "[badignore]") || !strings.Contains(out, "1 finding(s)") {
		t.Errorf("want exactly the badignore finding:\n%s", out)
	}
}

func TestWriteBaselineThenClean(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "baseline.json")
	code, _, errOut := runLint("-checks", "gorleak", "-write-baseline", "-baseline", baseline, gorleakFixture)
	if code != 0 {
		t.Fatalf("-write-baseline exit %d, want 0; stderr: %s", code, errOut)
	}
	code, out, _ := runLint("-checks", "gorleak", "-baseline", baseline, gorleakFixture)
	if code != 0 {
		t.Fatalf("baselined run exit %d, want 0; output:\n%s", code, out)
	}
	if !strings.Contains(out, "0 finding(s) (2 baselined") {
		t.Errorf("summary does not account for the baselined findings:\n%s", out)
	}
}

func TestTimingFlag(t *testing.T) {
	code, out, _ := runLint("-checks", "gorleak", "-timing", gorleakFixture)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (fixture has findings)", code)
	}
	if !strings.Contains(out, "lint: timing stage parse") {
		t.Errorf("missing parse stage timing line:\n%s", out)
	}
	// A syntactic check needs no types, so the run must not type-check.
	if strings.Contains(out, "lint: timing stage typecheck") {
		t.Errorf("syntactic-only run type-checked:\n%s", out)
	}
	if !strings.Contains(out, "lint: timing check gorleak") {
		t.Errorf("missing per-check timing line:\n%s", out)
	}
}

func TestTimingOffByDefault(t *testing.T) {
	_, out, _ := runLint("-checks", "gorleak", gorleakFixture)
	if strings.Contains(out, "lint: timing") {
		t.Errorf("timing lines printed without -timing:\n%s", out)
	}
}

func TestPruneBaseline(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "baseline.json")
	code, _, errOut := runLint("-checks", "gorleak", "-write-baseline", "-baseline", baseline, gorleakFixture)
	if code != 0 {
		t.Fatalf("-write-baseline exit %d, want 0; stderr: %s", code, errOut)
	}
	b, err := analyzers.LoadBaseline(baseline)
	if err != nil {
		t.Fatal(err)
	}
	got := len(b.Findings)
	b.Findings = append(b.Findings, analyzers.BaselineEntry{
		File: "deleted.go", Check: "gorleak", Message: "goroutine leak long since fixed",
	})
	if err := b.Save(baseline); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runLint("-checks", "gorleak", "-prune-baseline", "-baseline", baseline, gorleakFixture)
	if code != 0 {
		t.Fatalf("-prune-baseline exit %d, want 0; output:\n%s", code, out)
	}
	want := "pruned 1 stale entry from"
	if !strings.Contains(out, want) {
		t.Errorf("output %q does not contain %q", out, want)
	}
	pruned, err := analyzers.LoadBaseline(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Findings) != got {
		t.Errorf("pruned baseline has %d entries, want %d", len(pruned.Findings), got)
	}
	// The real findings must still be grandfathered.
	code, out, _ = runLint("-checks", "gorleak", "-baseline", baseline, gorleakFixture)
	if code != 0 {
		t.Fatalf("post-prune run exit %d, want 0; output:\n%s", code, out)
	}
}
