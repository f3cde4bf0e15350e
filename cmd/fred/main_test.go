package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// runMainEnv, set in a re-executed test binary's environment, makes it run
// main instead of the tests, so log.Fatal and os.Exit behave as in the
// built command.
const runMainEnv = "FRED_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runFred runs `fred args...` in dir and returns its stdout, stderr and
// exit code.
func runFred(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// goldenCommands is the pipeline the README walks through, plus each
// sweep mode, attack estimator, anonymization scheme and assess mode. Each
// runs in order in one directory, so later commands read what earlier ones
// wrote. testdata/<name>.stdout holds each command's output and
// testdata/*.csv every file the commands write, as the standalone datagen,
// fred, attack, anonymize, assess and experiments binaries printed and
// wrote them before they became subcommands.
var goldenCommands = []struct{ name, args string }{
	{"datagen-university", "datagen -scenario university -seed 42 -n 40 -p p.csv -q q.csv"},
	{"datagen-financial", "datagen -scenario financial -p financial-p.csv -q financial-q.csv"},
	{"datagen-tableii", "datagen -scenario tableii -p tableii-p.csv -q tableii-q.csv"},
	{"sweep-auto", "sweep " + sweepInputs + " -out optimal.csv"},
	{"sweep-explicit-markdown", "sweep " + sweepInputs + " -tp 2.85e8 -tu 0.0018 -markdown"},
	{"sweep-mondrian-literal", "sweep " + sweepInputs + " -scheme mondrian -literal-loop -tp 1 -tu 1e-9"},
	{"sweep-adaptive", "sweep " + sweepInputs + " -adaptive -tp 2.85e8 -tu 0.0018"},
	{"sweep-kset", "sweep " + sweepInputs + " -kset 2,4,6,8,10"},
	{"sweep-auto-literal", "sweep " + sweepInputs + " -literal-loop"},
	{"sweep-stride", "sweep " + sweepInputs + " -stride 2"},
	{"sweep-range", "sweep " + sweepInputs + " -mink 3 -maxk 12"},
	{"sweep-mondrian-markdown", "sweep " + sweepInputs + " -scheme mondrian -markdown"},
	{"sweep-adaptive-tu", "sweep " + sweepInputs + " -adaptive -tu 0.0018"},
	{"attack-report", "attack " + attackInputs + " -report -out phat.csv"},
	{"attack-rank", "attack " + attackInputs + " -estimator rank"},
	{"attack-fis", "attack " + attackInputs + " -fis testdata/university.fis -report"},
	{"anonymize-mdav", "anonymize -in p.csv -k 4 -scheme mdav -out release-mdav.csv"},
	{"anonymize-mondrian", "anonymize -in p.csv -k 4 -scheme mondrian -out release-mondrian.csv"},
	{"anonymize-kanon", "anonymize -in p.csv -k 4 -scheme kanon -out release-kanon.csv"},
	{"assess-summary", "assess -in p.csv"},
	{"assess-est", "assess -in p.csv -est phat.csv -lo 40000 -hi 160000"},
	{"assess-est-markdown", "assess -in p.csv -est phat.csv -lo 40000 -hi 160000 -markdown"},
	{"experiments", "experiments -fig all"},
}

const (
	sweepInputs  = "-p p.csv -q q.csv -lo 40000 -hi 160000 -workers 2"
	attackInputs = "-p p.csv -release optimal.csv -q q.csv -lo 40000 -hi 160000"
)

// TestCommandsMatchGoldens: every command prints its golden stdout, and the
// files they write are the golden files, byte for byte.
func TestCommandsMatchGoldens(t *testing.T) {
	dir := t.TempDir()
	fis, err := os.ReadFile(filepath.Join("..", "..", "testdata", "university.fis"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "testdata"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "testdata", "university.fis"), fis, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCommands {
		stdout, stderr, code := runFred(t, dir, strings.Fields(c.args)...)
		if code != 0 {
			t.Fatalf("fred %s: exit %d\n%s", c.args, code, stderr)
		}
		sameBytes(t, "fred "+c.args, []byte(stdout), filepath.Join("testdata", c.name+".stdout"))
	}

	want, err := filepath.Glob(filepath.Join("testdata", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		if e.Type().IsRegular() {
			got = append(got, filepath.Join("testdata", e.Name()))
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("commands wrote %v, want %v", got, want)
	}
	for _, golden := range want {
		b, err := os.ReadFile(filepath.Join(dir, filepath.Base(golden)))
		if err != nil {
			t.Fatal(err)
		}
		sameBytes(t, filepath.Base(golden), b, golden)
	}
}

// sameBytes fails the test when got differs from the golden file, naming
// the first differing line.
func sameBytes(t *testing.T, what string, got []byte, golden string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s differs from %s at line %d:\n got %q\nwant %q", what, golden, i+1, g, w)
			return
		}
	}
}

// TestUsageErrors: no subcommand, an unknown one, missing required flags, or
// a sweep without thresholds over fewer levels than calibration needs exit
// 2 before any work; an estimate assessed against a table without one
// sensitive column fails with the shared risk-report check.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args   string
		code   int
		stderr string
	}{
		{"", 2, "usage: fred <command>"},
		{"bogus", 2, "usage: fred <command>"},
		{"sweep", 2, "Usage of fred sweep"},
		{"attack -p testdata/p.csv", 2, "Usage of fred attack"},
		{"assess -in testdata/q.csv -est testdata/phat.csv -lo 40000 -hi 160000", 1,
			"risk report needs exactly one sensitive column, found 0"},
		{"sweep -p testdata/p.csv -lo 40000 -hi 160000 -scheme nope", 1, `unknown scheme "nope"`},
		{"sweep -p testdata/p.csv -q testdata/q.csv -lo 40000 -hi 160000 -mink 2 -maxk 3", 2,
			"calibration needs ≥ 3 levels; k = [2 3] on 40 rows reaches 2"},
		{"sweep -p testdata/p.csv -q testdata/q.csv -lo 40000 -hi 160000 -adaptive -kset 2,3", 2,
			"calibration needs ≥ 3 levels; k = [2 3] on 40 rows reaches 2"},
		{"sweep -p testdata/p.csv -q testdata/q.csv -lo 40000 -hi 160000 -kset 2,8,60", 2,
			"calibration needs ≥ 3 levels; k = [2 8 60] on 40 rows reaches 2"},
	} {
		_, stderr, code := runFred(t, ".", strings.Fields(c.args)...)
		if code != c.code || !strings.Contains(stderr, c.stderr) {
			t.Errorf("fred %s: exit %d, stderr %q; want exit %d and %q", c.args, code, stderr, c.code, c.stderr)
		}
	}
}

// TestSweepCapsMaxKAtRows: a -maxk far past P's row count (2⁴⁰ on the
// 40-row cohort) is capped at the row count right after P is read, so a
// range sweep with thresholds, an adaptive one and a calibrating one each
// print what -maxk 40 prints, instead of sizing a level list by -maxk.
func TestSweepCapsMaxKAtRows(t *testing.T) {
	for _, mode := range []string{"-tp 2.85e8 -tu 0.0018", "-adaptive -tu 0.0018", ""} {
		args := strings.Fields("sweep -p testdata/p.csv -q testdata/q.csv -lo 40000 -hi 160000 -workers 2 " + mode)
		want, stderr, code := runFred(t, ".", slices.Concat(args, []string{"-maxk", "40"})...)
		if code != 0 {
			t.Fatalf("fred %s -maxk 40: exit %d\n%s", strings.Join(args, " "), code, stderr)
		}
		got, stderr, code := runFred(t, ".", slices.Concat(args, []string{"-maxk", "1099511627776"})...)
		if code != 0 || got != want {
			t.Errorf("fred %s -maxk 2⁴⁰: exit %d (stderr %q); stdout equal to -maxk 40's: %v",
				strings.Join(args, " "), code, stderr, got == want)
		}
	}
}
