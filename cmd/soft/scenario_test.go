package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenarioCLI drives the scenario surface of the CLI: the listing,
// explore -scenario (with determinism across worker counts on the byte
// level), and a matrix with scenario columns warmed through a store.
func TestScenarioCLI(t *testing.T) {
	dir := t.TempDir()

	stdout, stderr, code := runCLI(t, "scenarios")
	if code != 0 {
		t.Fatalf("soft scenarios: exit %d\n%s", code, stderr)
	}
	for _, want := range []string{"Add Modify", "Netplugin VXLAN", "gen:0 .."} {
		if !strings.Contains(stdout, want) {
			t.Errorf("scenarios listing misses %q:\n%s", want, stdout)
		}
	}

	// explore -scenario, sequential vs parallel: byte-identical results.
	seqOut := filepath.Join(dir, "seq.results")
	parOut := filepath.Join(dir, "par.results")
	if _, stderr, code := runCLI(t, "explore", "-scenario", "Add Delete Probe", "-workers", "1", "-o", seqOut); code != 0 {
		t.Fatalf("explore -scenario -workers 1: exit %d\n%s", code, stderr)
	}
	_, stderr, code = runCLI(t, "explore", "-scenario", "Add Delete Probe", "-workers", "4", "-v", "-o", parOut)
	if code != 0 {
		t.Fatalf("explore -scenario -workers 4: exit %d\n%s", code, stderr)
	}
	// Exploration answers every query on per-worker sessions and never
	// touches the cached query façade, so -v reports session counters and
	// no façade query counts.
	if !strings.Contains(stderr, "sessions: ") || strings.Contains(stderr, " queries, ") {
		t.Fatalf("explore -scenario -v: solver stats not from session-only exploration:\n%s", stderr)
	}
	seq, err := os.ReadFile(seqOut)
	if err != nil {
		t.Fatal(err)
	}
	par, err := os.ReadFile(parOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(normalizeElapsed(t, seq)) != string(normalizeElapsed(t, par)) {
		t.Fatal("scenario exploration differs between -workers 1 and -workers 4")
	}

	// Flag validation.
	if _, stderr, code := runCLI(t, "explore", "-scenario", "no such"); code != 2 || !strings.Contains(stderr, "unknown scenario") {
		t.Fatalf("explore -scenario bogus: exit %d\n%s", code, stderr)
	}
	if _, stderr, code := runCLI(t, "explore", "-scenario", "Add Modify", "-test", "Packet Out"); code != 2 || !strings.Contains(stderr, "mutually exclusive") {
		t.Fatalf("explore -scenario -test: exit %d\n%s", code, stderr)
	}
	if _, stderr, code := runCLI(t, "matrix", "-scenarios", "no such"); code != 2 || !strings.Contains(stderr, "unknown scenario") {
		t.Fatalf("matrix -scenarios bogus: exit %d\n%s", code, stderr)
	}

	// A matrix with a scenario column: cold run populates the store, warm
	// re-run hits the cache for every cell, reports byte-identical.
	storeDir := filepath.Join(dir, "store")
	coldReport := filepath.Join(dir, "cold.report")
	warmReport := filepath.Join(dir, "warm.report")
	args := []string{
		"matrix", "-agents", "ref,ovs", "-tests", "Stats Request",
		"-scenarios", "Add Modify", "-store", storeDir, "-code-version", "cli-test",
	}
	stdout, stderr, code = runCLI(t, append(args, "-o", coldReport)...)
	if code != 0 {
		t.Fatalf("cold matrix with scenarios: exit %d\n%s", code, stderr)
	}
	for _, want := range []string{
		"4 cells (4 explored, 0 cached)",
		"cell ref / Add Modify:",
		"check Add Modify: ref vs ovs:",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("cold matrix output misses %q:\n%s", want, stdout)
		}
	}
	stdout, stderr, code = runCLI(t, append(args, "-o", warmReport)...)
	if code != 0 {
		t.Fatalf("warm matrix with scenarios: exit %d\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "4 cells (0 explored, 4 cached)") {
		t.Errorf("warm matrix did not hit the cache for every cell:\n%s", stdout)
	}
	cold, err := os.ReadFile(coldReport)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := os.ReadFile(warmReport)
	if err != nil {
		t.Fatal(err)
	}
	if string(cold) != string(warm) {
		t.Fatal("warm scenario matrix report differs from cold run")
	}
}
