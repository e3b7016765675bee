package analyzers

import (
	"path/filepath"
	"strings"
	"testing"
)

// fixtureLoader is shared by every fixture test, so the standard
// library is source-imported once per test binary rather than once per
// fixture.
var fixtureLoader = newLoader()

// lintFixture runs the checks named by ids (the full suite when ids is
// empty) over one fixture directory through the shared loader.
func lintFixture(t *testing.T, dir string, ids ...string) []Diagnostic {
	t.Helper()
	checks, err := Select(ids)
	if err != nil {
		t.Fatalf("Select(%v): %v", ids, err)
	}
	res, err := fixtureLoader.run([]string{dir}, checks)
	if err != nil {
		t.Fatalf("run(%s): %v", dir, err)
	}
	return res.Diags
}

// goldenWant is one expected finding of a dirty fixture: its line and a
// substring of its message. Every finding must also name the fixture's
// check and carry SeverityError.
type goldenWant struct {
	line   int
	substr string
}

// golden is one check's fixture pair: testdata/<check>/dirty must
// produce exactly want, in order, under its own check, and
// testdata/<check>/clean must produce nothing under the full suite.
type golden struct {
	check string
	want  []goldenWant
}

// goldens has one row per check, in ID order.
var goldens = []golden{
	{check: "ctxflow", want: []goldenWant{
		{15, "context.Background in repro/internal/analyzers/testdata/ctxflow/dirty.detachedTimeout, which already carries a context"},
		{21, "context.TODO in repro/internal/analyzers/testdata/ctxflow/dirty.handlerTODO, which already carries a context"},
		{32, "but every caller (1) carries a context; accept a ctx parameter"},
		{43, "blocking channel send in a loop of repro/internal/analyzers/testdata/ctxflow/dirty.pump with no ctx.Done() escape"},
		{51, "blocking channel receive in a loop of repro/internal/analyzers/testdata/ctxflow/dirty.drain with no ctx.Done() escape"},
		{60, "select in a loop of repro/internal/analyzers/testdata/ctxflow/dirty.waitLoop has no ctx.Done() case and no default"},
		{75, "calls repro/internal/analyzers/testdata/ctxflow/dirty.process without threading its ctx"},
	}},
	{check: "detertaint", want: []goldenWant{
		{26, "time.Now flows into the seed argument of repro/internal/analyzers/testdata/detertaint/dirty.NewTracer"},
		{32, "global math/rand.Int63 flows into the seed argument"},
		{37, "time.Now written to seed field t.seed"},
		{44, "map range order flows into the ring placement key argument"},
		{55, "nondeterministic result of repro/internal/analyzers/testdata/detertaint/dirty.stamp flows into the seed argument"},
		{65, "time.Now flows into the seed argument of repro/internal/analyzers/testdata/detertaint/dirty.launder"},
		{70, "time.Now flows into the seed argument of math/rand.NewSource"},
		{78, "time.Now flows into the seed argument of repro/internal/analyzers/testdata/detertaint/dirty.NewTracer in repro/internal/analyzers/testdata/detertaint/dirty.assignedTaint"},
	}},
	{check: "droppederr", want: []goldenWant{
		{12, "discarded with _ ="},
		{16, "error return of persist ignored"},
		{20, "os.Open"},
		{21, "f.Close"},
	}},
	{check: "floateq", want: []goldenWant{
		{8, "float operands"},
		{12, "float operands"},
		{17, "float operands"},
		{21, "float operands"},
	}},
	{check: "gorleak", want: []goldenWant{
		{6, "no visible join"},
		{12, "no visible join"},
	}},
	{check: "hotpath", want: []goldenWant{
		{13, "defer inside a hot loop"},
		{21, "map allocated inside a hot loop"},
		{32, "map literal allocated inside a hot loop"},
		{42, "append to s (declared without capacity) inside a hot loop"},
		{51, "closure capturing total inside a hot loop"},
		{60, "argument i boxes into interface interface{} inside a hot loop"},
		// filehot.go sorts after dirty.go: the file-level directive
		// marks a function with no mark of its own.
		{9, "defer inside a hot loop"},
	}},
	{check: "lockbalance", want: []goldenWant{
		{13, "no defer"},
		{18, "escapes before"},
		{27, "c.mu.TryLock in tryLeak: the success path never releases"},
		{35, "c.mu.TryLock in tryGuardLeak: the success path never releases"},
	}},
	{check: "lockheld", want: []goldenWant{
		{22, "channel send while s.mu is held"},
		{30, "channel receive while s.rw is held"},
		{37, "call to time.Sleep blocks (time.Sleep) while s.mu is held"},
		{44, "call to (*sync.WaitGroup).Wait blocks (WaitGroup.Wait) while s.mu is held"},
		{51, "select with no default while s.mu is held"},
		{62, "call to net/http.Get blocks (net/http.Get) while s.mu is held"},
		{74, "blocks (time.Sleep via (*repro/internal/analyzers/testdata/lockheld/dirty.server).nap -> time.Sleep) while s.mu is held"},
	}},
	{check: "lossyconv", want: []goldenWant{
		{6, "int(haloBytes) truncates a fractional byte count"},
		{10, "int32(msgBytes) narrows the byte count from 64 to 32 bits"},
		{14, "uint64(eventCount) reinterprets the signed halo/event count as unsigned"},
		{18, "int32(sendBytes+recvBytes) narrows the byte count from 64 to 32 bits"},
	}},
	{check: "nilerr", want: []goldenWant{
		{30, "f is used here, but err is non-nil on this path"},
		{39, "error err is overwritten here before the previous value (line 38) was read"},
		{47, "error err is overwritten here before the previous value (line 46) was read"},
		{54, "error err is assigned here but never read before return"},
	}},
	{check: "nodeterm", want: []goldenWant{
		{12, "rand.Shuffle"},
		{16, "rand.Float64"},
		{20, "time.Now"},
		{21, "time.Since"},
		{26, "order-dependent"},
		{34, "order-dependent"},
	}},
	{check: "spanend", want: []goldenWant{
		{22, "discarded"},
		{26, "discarded"},
		{30, "return path before sp.End"},
		{39, "no End on the fallthrough path"},
	}},
	{check: "typeassert", want: []goldenWant{
		{9, "bare type assertion v.(string) in a return statement"},
		{13, "bare type assertion v.(int) as a call argument"},
		{18, "bare type assertion v.(string) on the right-hand side of an assignment"},
		{23, "bare type assertion v.(int) in an expression"},
	}},
	{check: "unitflow", want: []goldenWant{
		{10, `field Sample.WindowMS is suffixed ms but its comment documents "seconds" (s)`},
		{20, `"+" mixes units: wait is in s but payloadBytes is in B`},
		{25, `"-" mixes time scales: t is in s but sliceMS is in ms`},
		{30, "budgetUSD is suffixed USD but is assigned a value in us"},
		{35, "ratioS is suffixed s but stores a dimensionless ratio"},
		{40, "totalS is suffixed s but stores a product of units (time×time)"},
		{45, `"+=" mixes units: totalBytes is in B but extraMS is in ms`},
		{50, "CapUSD is suffixed USD but is assigned a value in s"},
		{58, `call to bill passes elapsedS (s) for parameter "amountUSD", which is in USD`},
		{62, "waitUS declares its result in us but returns a value in s"},
	}},
	{check: "unitsuffix", want: []goldenWant{
		{8, "Budget.Limit"},
		{9, "Budget.Used"},
		{14, "Transfer.Elapsed"},
		{23, "mixes units"},
		{27, "mixes units"},
		{31, "mixes units"},
	}},
	{check: "useafterfinal", want: []goldenWant{
		{22, "c.Send called on a path where c.Close already ran (line 21)"},
		{31, "c.Send called on a path where c.Close already ran (line 29)"},
		// The loop case: Close on line 39 reaches the Send on line 38
		// through the back edge.
		{38, "c.Send called on a path where c.Close already ran (line 39)"},
	}},
}

// scopeOf names the scope a check's run function reads.
func scopeOf(c Check) string {
	switch {
	case c.OnFile != nil:
		return "file"
	case c.OnTypedFile != nil:
		return "typed"
	case c.OnFunc != nil:
		return "func"
	}
	return "surface"
}

// The golden tests share the goldens table and one harness; each test
// name covers the checks of one scope.

func TestGoldenDirtyFixtures(t *testing.T)      { testDirtyFixtures(t, "file") }
func TestTypedGoldenDirtyFixtures(t *testing.T) { testDirtyFixtures(t, "typed") }
func TestFlowGoldenDirtyFixtures(t *testing.T)  { testDirtyFixtures(t, "func") }
func TestInterGoldenDirtyFixtures(t *testing.T) { testDirtyFixtures(t, "surface") }

func TestGoldenCleanFixtures(t *testing.T)      { testCleanFixtures(t, "file") }
func TestTypedGoldenCleanFixtures(t *testing.T) { testCleanFixtures(t, "typed") }
func TestFlowGoldenCleanFixtures(t *testing.T)  { testCleanFixtures(t, "func") }
func TestInterGoldenCleanFixtures(t *testing.T) { testCleanFixtures(t, "surface") }

// goldensOf returns the goldens rows whose check has the given scope.
func goldensOf(scope string) []golden {
	byID := map[string]Check{}
	for _, c := range All() {
		byID[c.ID] = c
	}
	var rows []golden
	for _, g := range goldens {
		if scopeOf(byID[g.check]) == scope {
			rows = append(rows, g)
		}
	}
	return rows
}

func testDirtyFixtures(t *testing.T, scope string) {
	for _, g := range goldensOf(scope) {
		t.Run(g.check, func(t *testing.T) {
			dir := filepath.Join("testdata", g.check, "dirty")
			got := lintFixture(t, dir, g.check)
			if len(got) != len(g.want) {
				t.Fatalf("%s: got %d finding(s), want %d:\n%s",
					dir, len(got), len(g.want), renderDiags(got))
			}
			for i, w := range g.want {
				d := got[i]
				if d.Line != w.line || d.Check != g.check {
					t.Errorf("finding %d: got %s:%d [%s], want line %d [%s]",
						i, d.File, d.Line, d.Check, w.line, g.check)
				}
				if !strings.Contains(d.Message, w.substr) {
					t.Errorf("finding %d: message %q does not contain %q", i, d.Message, w.substr)
				}
				if d.Severity != SeverityError {
					t.Errorf("finding %d: severity %q, want %q", i, d.Severity, SeverityError)
				}
			}
		})
	}
}

func testCleanFixtures(t *testing.T, scope string) {
	for _, g := range goldensOf(scope) {
		t.Run(g.check, func(t *testing.T) {
			// Clean fixtures must survive the full suite, not just their
			// own check: a clean idiom that trips a neighboring check is
			// still a false positive.
			dir := filepath.Join("testdata", g.check, "clean")
			if got := lintFixture(t, dir); len(got) != 0 {
				t.Fatalf("%s: want no findings, got:\n%s", dir, renderDiags(got))
			}
		})
	}
}

// TestGoldensCoverEveryCheck keeps the goldens table in step with the
// registry: one row per check, in ID order.
func TestGoldensCoverEveryCheck(t *testing.T) {
	all := All()
	if len(goldens) != len(all) {
		t.Fatalf("goldens has %d rows, registry %d checks", len(goldens), len(all))
	}
	for i, c := range all {
		if goldens[i].check != c.ID {
			t.Errorf("goldens row %d is %q, want %q", i, goldens[i].check, c.ID)
		}
	}
}

func TestSuppressionDirectives(t *testing.T) {
	got := lintFixture(t, filepath.Join("testdata", "suppress"), "floateq")
	// Same-line, line-above, comma-list and wildcard directives silence
	// their comparisons; only the directive missing a reason leaks: a
	// badignore for the malformed comment and the floateq it failed to
	// suppress.
	if len(got) != 2 {
		t.Fatalf("want 2 findings, got:\n%s", renderDiags(got))
	}
	if got[0].Check != BadIgnoreID || got[0].Line != 26 {
		t.Errorf("got %s:%d [%s], want line 26 [%s]", got[0].File, got[0].Line, got[0].Check, BadIgnoreID)
	}
	if got[1].Check != "floateq" || got[1].Line != 27 {
		t.Errorf("got %s:%d [%s], want line 27 [floateq]", got[1].File, got[1].Line, got[1].Check)
	}
}

// TestInterSuppression pins //lint:ignore handling for whole-surface
// checks: the directive in the file a finding lands in silences it.
func TestInterSuppression(t *testing.T) {
	dir := filepath.Join("testdata", "ctxflow", "suppressed")
	if got := lintFixture(t, dir, "ctxflow"); len(got) != 0 {
		t.Fatalf("want suppressed, got:\n%s", renderDiags(got))
	}
}

// TestFlowSuppression pins //lint:ignore handling for per-function
// checks: the directive above a finding's line silences it.
func TestFlowSuppression(t *testing.T) {
	for _, check := range []string{"nilerr", "useafterfinal", "hotpath"} {
		t.Run(check, func(t *testing.T) {
			dir := filepath.Join("testdata", check, "suppressed")
			if got := lintFixture(t, dir, check); len(got) != 0 {
				t.Fatalf("want suppressed, got:\n%s", renderDiags(got))
			}
		})
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	diags := []Diagnostic{
		{File: "a.go", Line: 3, Check: "floateq", Message: "m1", Severity: SeverityError},
		{File: "a.go", Line: 9, Check: "floateq", Message: "m1", Severity: SeverityError},
		{File: "b.go", Line: 1, Check: "gorleak", Message: "m2", Severity: SeverityError},
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := NewBaseline(diags).Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadBaseline(path)
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	if len(loaded.Findings) != 3 {
		t.Fatalf("loaded %d entries, want 3", len(loaded.Findings))
	}
	fresh, stale := loaded.Apply(diags)
	if len(fresh) != 0 || len(stale) != 0 {
		t.Errorf("round trip: fresh=%d stale=%d, want 0/0", len(fresh), len(stale))
	}
}

func TestBaselineFreshAndStale(t *testing.T) {
	baseline := NewBaseline([]Diagnostic{
		{File: "a.go", Line: 3, Check: "floateq", Message: "m1"},
		{File: "gone.go", Line: 8, Check: "gorleak", Message: "paid down"},
	})
	now := []Diagnostic{
		// Same finding as the baseline's a.go entry, but on a different
		// line: baselines match on (file, check, message) so a shifted
		// finding stays grandfathered.
		{File: "a.go", Line: 7, Check: "floateq", Message: "m1"},
		{File: "c.go", Line: 2, Check: "droppederr", Message: "new finding"},
	}
	fresh, stale := baseline.Apply(now)
	if len(fresh) != 1 || fresh[0].File != "c.go" {
		t.Errorf("fresh = %+v, want only the c.go finding", fresh)
	}
	if len(stale) != 1 || stale[0].File != "gone.go" {
		t.Errorf("stale = %+v, want only the gone.go entry", stale)
	}
}

func TestBaselineMultisetBudget(t *testing.T) {
	baseline := NewBaseline([]Diagnostic{
		{File: "a.go", Check: "floateq", Message: "m1"},
	})
	now := []Diagnostic{
		{File: "a.go", Line: 1, Check: "floateq", Message: "m1"},
		{File: "a.go", Line: 5, Check: "floateq", Message: "m1"},
	}
	fresh, _ := baseline.Apply(now)
	if len(fresh) != 1 {
		t.Fatalf("one baseline entry must absorb exactly one of two identical findings; fresh=%d", len(fresh))
	}
}

func TestLoadBaselineMissingFile(t *testing.T) {
	b, err := LoadBaseline(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatalf("missing baseline must not be an error: %v", err)
	}
	if len(b.Findings) != 0 {
		t.Fatalf("missing baseline must be empty, got %d entries", len(b.Findings))
	}
}

func TestRunSkipsTestdata(t *testing.T) {
	res, err := fixtureLoader.run([]string{"./..."}, All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Files == 0 {
		t.Fatal("lint surface is empty; expected the package's own files")
	}
	for _, d := range res.Diags {
		if strings.Contains(d.File, "testdata") {
			t.Errorf("testdata leaked into the lint surface: %s", d)
		}
	}
}

func TestRunExplicitDirectory(t *testing.T) {
	checks, err := Select([]string{"gorleak"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fixtureLoader.run([]string{
		filepath.Join("testdata", "gorleak", "dirty"),
		filepath.Join("testdata", "gorleak", "clean"),
	}, checks)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Files != 2 {
		t.Errorf("Files = %d, want 2 (dirty.go and clean.go)", res.Files)
	}
	if len(res.Diags) != 2 {
		t.Errorf("got %d finding(s), want the 2 from dirty.go:\n%s", len(res.Diags), renderDiags(res.Diags))
	}
}

// typedFileChecks returns the checks that run on one type-checked file.
func typedFileChecks() []Check {
	var out []Check
	for _, c := range All() {
		if c.OnTypedFile != nil {
			out = append(out, c)
		}
	}
	return out
}

func TestRunTypedSkipsTestdata(t *testing.T) {
	checks := typedFileChecks()
	if len(checks) == 0 {
		t.Fatal("no typed-file checks registered")
	}
	res, err := fixtureLoader.run([]string{"./..."}, checks)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Files == 0 {
		t.Fatal("typed lint surface is empty; expected the package's own files")
	}
	for _, d := range res.Diags {
		if strings.Contains(d.File, "testdata") {
			t.Errorf("testdata leaked into the lint surface: %s", d)
		}
	}
}

func TestRunTypedExplicitDirectory(t *testing.T) {
	checks, err := Select([]string{"typeassert"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fixtureLoader.run([]string{filepath.Join("testdata", "typeassert", "dirty")}, checks)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Files != 1 {
		t.Errorf("Files = %d, want 1", res.Files)
	}
	if len(res.Diags) != 4 {
		t.Errorf("got %d finding(s), want 4:\n%s", len(res.Diags), renderDiags(res.Diags))
	}
}

// TestRunAbsolutePattern pins one rendering per file: an absolute
// pattern under the working directory reports syntactic and typed
// findings in the same file under the same relative path.
func TestRunAbsolutePattern(t *testing.T) {
	abs, err := filepath.Abs(filepath.Join("testdata", "abspath"))
	if err != nil {
		t.Fatal(err)
	}
	got := lintFixture(t, abs, "floateq", "typeassert")
	if len(got) != 2 {
		t.Fatalf("want 2 findings, got:\n%s", renderDiags(got))
	}
	want := filepath.Join("testdata", "abspath", "abspath.go")
	for _, d := range got {
		if d.File != want {
			t.Errorf("[%s] File = %q, want %q", d.Check, d.File, want)
		}
	}
}

func TestSelectUnknownCheck(t *testing.T) {
	if _, err := Select([]string{"nonsense"}); err == nil {
		t.Fatal("Select must reject unknown check IDs")
	}
}

func renderDiags(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString("  " + d.String() + "\n")
	}
	if b.Len() == 0 {
		return "  (none)\n"
	}
	return b.String()
}
