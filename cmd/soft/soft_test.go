// End-to-end tests driving the unified CLI in-process through run() — the
// same dispatch, flag handling, and exit-code path the binary uses, minus
// the os.Exit.
package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// TestNegativeMaxPathsUsageError: the engine reads a cap <= 0 as
// unbounded, so a negative -max-paths is a usage error (exit 2) that names
// the flag, on every command that takes it, rather than an unbounded run.
func TestNegativeMaxPathsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"explore", "-test", "Concrete", "-max-paths", "-1"},
		{"matrix", "-agents", "ref", "-tests", "Concrete", "-crosscheck=false", "-max-paths", "-1"},
		{"report", "-table", "2", "-quick", "-max-paths", "-1"},
	} {
		t.Run(args[0], func(t *testing.T) {
			_, stderr, code := runCLI(t, args...)
			if code != 2 || !strings.Contains(stderr, "-max-paths must not be negative") {
				t.Fatalf("soft %v: exit %d, want 2 naming -max-paths (stderr %q)", args, code, stderr)
			}
		})
	}
}

// TestExploreDiffE2E mirrors the quickstart_e2e_test pipeline through the
// binary surface: soft explore on the ref/modified agent pair, then soft
// diff, asserting the known injected inconsistencies are reported.
func TestExploreDiffE2E(t *testing.T) {
	dir := t.TempDir()
	refOut := filepath.Join(dir, "ref.txt")
	modOut := filepath.Join(dir, "mod.txt")

	for agent, path := range map[string]string{"ref": refOut, "modified": modOut} {
		_, stderr, code := runCLI(t, "explore", "-agent", agent, "-test", "Packet Out", "-o", path)
		if code != 0 {
			t.Fatalf("soft explore -agent %s: exit %d, stderr:\n%s", agent, code, stderr)
		}
		if !strings.Contains(stderr, "Packet Out") || !strings.Contains(stderr, "paths") {
			t.Errorf("explore summary missing from stderr: %q", stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("soft-results v1\n")) {
			t.Fatalf("results file for %s does not start with the versioned magic line", agent)
		}
	}

	stdout, stderr, code := runCLI(t, "diff", refOut, modOut)
	if code != 0 {
		t.Fatalf("soft diff: exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "Reference Switch vs Modified Switch on Packet Out") {
		t.Errorf("diff header missing:\n%s", stdout)
	}
	// The §5.1.1 injected modifications visible on Packet Out: the FLOOD
	// rejection and the changed error code for output port 0.
	for _, want := range []string{"inconsistenc", "witness", "port=FLOOD", "ERROR/BAD_ACTION/5"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("diff output misses %q:\n%s", want, stdout)
		}
	}

	// The diff report must be byte-identical across worker counts (the
	// summary line carries wall-clock time, so compare from the
	// first inconsistency on).
	body := func(out string) string {
		if i := strings.Index(out, "\n"); i >= 0 {
			return out[i:]
		}
		return out
	}
	wantBody := body(stdout)
	if wantBody == "" || !strings.Contains(wantBody, "witness") {
		t.Fatalf("diff body empty or witness-free:\n%s", stdout)
	}
	for _, args := range [][]string{
		{"diff", "-workers", "1", refOut, modOut},
		{"diff", "-workers", "4", refOut, modOut},
		{"diff", "-workers", "4", "-v", refOut, modOut},
	} {
		out2, stderr2, code2 := runCLI(t, args...)
		if code2 != 0 {
			t.Fatalf("soft %v: exit %d, stderr:\n%s", args, code2, stderr2)
		}
		if got := body(out2); got != wantBody {
			t.Errorf("soft %v diverged from the canonical report:\n--- want\n%s\n--- got\n%s",
				args, wantBody, got)
		}
		if args[len(args)-3] == "-v" && !strings.Contains(stderr2, "solver:") {
			t.Errorf("soft diff -v reported no solver statistics: %q", stderr2)
		}
	}

	// soft group renders the same results file's distinct behaviors.
	stdout, stderr, code = runCLI(t, "group", refOut)
	if code != 0 {
		t.Fatalf("soft group: exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "distinct output results") {
		t.Errorf("group summary missing:\n%s", stdout)
	}
}

// TestDiffReproduceLabels: soft diff -reproduce labels each reproducer
// wire by the test input it concretizes, so every ref-vs-ovs Packet Out
// input reads PACKET_OUT, the malformed-action witnesses included.
func TestDiffReproduceLabels(t *testing.T) {
	dir := t.TempDir()
	var files []string
	for _, agent := range []string{"ref", "ovs"} {
		path := filepath.Join(dir, agent+".txt")
		if _, stderr, code := runCLI(t, "explore", "-agent", agent, "-test", "Packet Out", "-o", path); code != 0 {
			t.Fatalf("soft explore -agent %s: exit %d, stderr:\n%s", agent, code, stderr)
		}
		files = append(files, path)
	}
	stdout, stderr, code := runCLI(t, "diff", "-reproduce", files[0], files[1])
	if code != 0 {
		t.Fatalf("soft diff -reproduce: exit %d, stderr:\n%s", code, stderr)
	}
	inputs, packetOuts := strings.Count(stdout, "\n  input "), strings.Count(stdout, "\n  input 0 (PACKET_OUT): ")
	if inputs != 146 || packetOuts != inputs {
		t.Fatalf("%d of %d reproducer inputs labelled PACKET_OUT, want all 146", packetOuts, inputs)
	}
}

// normalizeElapsed blanks the results file's only wall-clock-dependent
// line so runs can be compared byte for byte.
func normalizeElapsed(t *testing.T, data []byte) []byte {
	t.Helper()
	lines := bytes.Split(data, []byte("\n"))
	found := false
	for i, l := range lines {
		if bytes.HasPrefix(l, []byte("elapsed ")) {
			lines[i] = []byte("elapsed 0")
			found = true
		}
	}
	if !found {
		t.Fatal("results file has no elapsed line")
	}
	return bytes.Join(lines, []byte("\n"))
}

// TestExploreDeterminismFlags is the CLI acceptance check for the solver
// stack: `soft explore` output must be byte-identical (modulo the elapsed
// line) across -workers.
func TestExploreDeterminismFlags(t *testing.T) {
	dir := t.TempDir()
	var want []byte
	for _, workers := range []string{"1", "4"} {
		out := filepath.Join(dir, "w"+workers+".txt")
		_, stderr, code := runCLI(t, "explore", "-agent", "ref", "-test", "Packet Out",
			"-workers", workers, "-v", "-o", out)
		if code != 0 {
			t.Fatalf("soft explore -workers %s: exit %d, stderr:\n%s", workers, code, stderr)
		}
		if !strings.Contains(stderr, "solver:") || !strings.Contains(stderr, "sessions:") {
			t.Errorf("-v did not report solver statistics: %q", stderr)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		data = normalizeElapsed(t, data)
		if want == nil {
			want = data
			continue
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("-workers %s produced different result bytes", workers)
		}
	}
}

// TestQuickstartSubcommand checks the Figure 1 walkthrough lands on the
// golden witness.
func TestQuickstartSubcommand(t *testing.T) {
	stdout, stderr, code := runCLI(t, "quickstart")
	if code != 0 {
		t.Fatalf("soft quickstart: exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "0xfffd") {
		t.Errorf("quickstart did not find the controller-port witness:\n%s", stdout)
	}
}

// TestCLIListings covers soft agents / soft tests.
func TestCLIListings(t *testing.T) {
	stdout, _, code := runCLI(t, "agents")
	if code != 0 {
		t.Fatalf("soft agents: exit %d", code)
	}
	for _, want := range []string{"ref", "modified", "ovs", "Reference Switch"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("soft agents output misses %q:\n%s", want, stdout)
		}
	}
	stdout, _, code = runCLI(t, "tests")
	if code != 0 {
		t.Fatalf("soft tests: exit %d", code)
	}
	if !strings.Contains(stdout, "Packet Out") {
		t.Errorf("soft tests output misses Packet Out:\n%s", stdout)
	}
}

// TestCLIExitCodes pins the shared error-path conventions: usage errors
// exit 2 with a "soft <subcommand>:" prefix, runtime errors exit 1.
func TestCLIExitCodes(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		code     int
		inStderr []string
	}{
		{"no command", nil, 2, []string{"usage: soft"}},
		{"unknown command", []string{"frobnicate"}, 2, []string{"unknown command"}},
		{"unknown agent", []string{"explore", "-agent", "nosuch"}, 2,
			[]string{"soft explore:", "unknown agent", "ref", "modified", "ovs"}},
		{"unknown test", []string{"explore", "-test", "nosuch"}, 2,
			[]string{"soft explore:", "unknown test"}},
		{"diff arity", []string{"diff", "only-one.txt"}, 2,
			[]string{"soft diff:", "two results files"}},
		{"missing file", []string{"group", "/nonexistent/x.txt"}, 1,
			[]string{"soft group:"}},
		{"bad flag", []string{"explore", "-nosuchflag"}, 2, nil},
		{"stats without url", []string{"stats"}, 2,
			[]string{"soft stats:", "-service", "soft matrix -metrics-addr"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, stderr, code := runCLI(t, c.args...)
			if code != c.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, c.code, stderr)
			}
			for _, want := range c.inStderr {
				if !strings.Contains(stderr, want) {
					t.Errorf("stderr misses %q:\n%s", want, stderr)
				}
			}
		})
	}
}

// TestCLIBadResultsFile drives the versioned-magic error through the
// binary surface.
func TestCLIBadResultsFile(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("this is not a results file\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runCLI(t, "group", bad)
	if code != 1 {
		t.Fatalf("soft group on bad file: exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "soft-results v1") {
		t.Errorf("error does not name the expected format version:\n%s", stderr)
	}
}

// TestHelpExitsZero: help is not an error.
func TestHelpExitsZero(t *testing.T) {
	stdout, _, code := runCLI(t, "help")
	if code != 0 {
		t.Fatalf("soft help: exit %d", code)
	}
	for _, c := range commands() {
		if !strings.Contains(stdout, c.name) {
			t.Errorf("help misses command %q", c.name)
		}
	}
	if _, _, code := runCLI(t, "explore", "-h"); code != 0 {
		t.Fatalf("soft explore -h: exit %d, want 0", code)
	}
}
