package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// traceFile mirrors the Chrome trace-event JSON shape the -trace flag
// writes ({"traceEvents": [...]}, what Perfetto loads).
type traceFile struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Ts   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
	} `json:"traceEvents"`
}

// TestExploreTraceIsOffTheAnswerPath is the observability determinism
// gate at the CLI surface: the same exploration run with and without
// -trace must produce byte-identical results files, and the trace file
// must be valid Chrome-trace JSON carrying the run's spans.
func TestExploreTraceIsOffTheAnswerPath(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.results")
	traced := filepath.Join(dir, "traced.results")
	tracePath := filepath.Join(dir, "trace.json")

	if _, stderr, code := runCLI(t, "explore", "-agent", "ref", "-test", "Packet Out", "-o", plain); code != 0 {
		t.Fatalf("plain explore: exit %d\n%s", code, stderr)
	}
	if _, stderr, code := runCLI(t, "explore", "-agent", "ref", "-test", "Packet Out",
		"-trace", tracePath, "-o", traced); code != 0 {
		t.Fatalf("traced explore: exit %d\n%s", code, stderr)
	}

	want, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(traced)
	if err != nil {
		t.Fatal(err)
	}
	// Identity holds modulo the wall-clock elapsed header, the one line
	// that legitimately differs between any two runs.
	if !bytes.Equal(normalizeElapsed(t, got), normalizeElapsed(t, want)) {
		t.Fatalf("results differ with -trace enabled (%d vs %d bytes): instrumentation leaked into the answer path", len(got), len(want))
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace file carries no events")
	}
	var sawExplore bool
	for _, ev := range tf.TraceEvents {
		// Complete spans ("X") plus process_name metadata ("M") are the
		// only phases the writer emits.
		if ev.Ph != "X" && ev.Ph != "M" {
			t.Errorf("event %q has phase %q, want X or M", ev.Name, ev.Ph)
		}
		if strings.HasPrefix(ev.Name, "explore:") {
			sawExplore = true
		}
	}
	if !sawExplore {
		t.Errorf("no explore: span in trace (events: %d)", len(tf.TraceEvents))
	}
}

// TestMatrixTraceIsOffTheAnswerPath is the same gate over the campaign
// layer: a -trace campaign report is byte-identical to an untraced one.
func TestMatrixTraceIsOffTheAnswerPath(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.report")
	traced := filepath.Join(dir, "traced.report")
	tracePath := filepath.Join(dir, "trace.json")

	args := []string{"matrix", "-agents", "ref,modified", "-tests", "Packet Out"}
	if _, stderr, code := runCLI(t, append(args, "-o", plain)...); code != 0 {
		t.Fatalf("plain matrix: exit %d\n%s", code, stderr)
	}
	if _, stderr, code := runCLI(t, append(args, "-o", traced, "-trace", tracePath)...); code != 0 {
		t.Fatalf("traced matrix: exit %d\n%s", code, stderr)
	}
	want, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("campaign reports differ with -trace enabled: instrumentation leaked into the answer path")
	}
	var tf traceFile
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	var sawCell, sawCheck bool
	for _, ev := range tf.TraceEvents {
		sawCell = sawCell || strings.HasPrefix(ev.Name, "cell:")
		sawCheck = sawCheck || strings.HasPrefix(ev.Name, "crosscheck:")
	}
	if !sawCell || !sawCheck {
		t.Errorf("trace misses campaign spans: cell=%v crosscheck=%v (events: %d)", sawCell, sawCheck, len(tf.TraceEvents))
	}
}

// TestMetricsMuxServesPrometheus pins the standalone endpoint `soft
// matrix -metrics-addr` mounts: Prometheus text with the engine series,
// no pprof unless opted in.
func TestMetricsMuxServesPrometheus(t *testing.T) {
	ts := httptest.NewServer(newMetricsMux(false))
	defer ts.Close()

	stdout, _, code := runCLI(t, "stats", "-service", ts.URL, "-raw")
	if code != 0 {
		t.Fatalf("soft stats: exit %d", code)
	}
	for _, want := range []string{"# TYPE", "soft_sat_solves_total", "soft_store_result_hits_total"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stats -raw output misses %q", want)
		}
	}

	pretty, _, code := runCLI(t, "stats", "-service", ts.URL)
	if code != 0 {
		t.Fatalf("soft stats (pretty): exit %d", code)
	}
	if strings.Contains(pretty, "# TYPE") || strings.Contains(pretty, "_bucket{") {
		t.Errorf("pretty stats output leaks exposition noise:\n%s", pretty)
	}
	if !strings.Contains(pretty, "soft_sat_solves_total") {
		t.Errorf("pretty stats output misses the solver counter:\n%s", pretty)
	}

	resp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Error("pprof served without -pprof opt-in")
	}
}
