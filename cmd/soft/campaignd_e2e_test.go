package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startCampaignd launches the daemon and returns its API base URL, the
// command handle, and the log collector; lines matching watch are relayed
// on watchCh (first occurrence only).
func startCampaignd(t *testing.T, bin, storeDir, watch string, watchCh chan string) (string, *exec.Cmd, *lockedBuf) {
	t.Helper()
	cmd := exec.Command(bin, "campaignd", "-addr", "127.0.0.1:0",
		"-store", storeDir, "-code-version", "e2e", "-v")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start soft campaignd: %v", err)
	}
	log := &lockedBuf{}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			log.add(line)
			if a, ok := strings.CutPrefix(line, "soft campaignd: listening on "); ok {
				addrCh <- a
			}
			if watch != "" && !sent && strings.Contains(line, watch) {
				sent = true
				watchCh <- line
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, cmd, log
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("campaignd never announced its address\n%s", log)
		return "", nil, nil
	}
}

// campaignJobView mirrors the slice of the job-record JSON the test needs.
type campaignJobView struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error"`
	Restarts int    `json:"restarts"`
}

func getJob(t *testing.T, base, id string) campaignJobView {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var j campaignJobView
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return j
}

// TestCampaignServeE2E is the durability acceptance test, multi-process
// edition: it submits a campaign to a real `soft campaignd` process,
// SIGKILLs the daemon mid-campaign — no flush, no goodbye — restarts it on
// the same store, and asserts the resumed job's canonical report is
// byte-identical to a plain fleetless `soft matrix` run that was never
// interrupted. It then runs `soft matrix -service` against the daemon to
// cover the remote RunMatrix path, and checks SIGTERM shuts down cleanly.
func TestCampaignServeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; cannot build the soft binary")
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "soft")
	build := exec.Command(goTool, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	agents := "ref,modified"
	tests := "Packet Out,Stats Request"

	// The uninterrupted reference: a fleetless serviceless campaign.
	refReport := filepath.Join(dir, "ref.report")
	ref := exec.Command(bin, "matrix", "-agents", agents, "-tests", tests, "-o", refReport)
	if out, err := ref.CombinedOutput(); err != nil {
		t.Fatalf("reference soft matrix: %v\n%s", err, out)
	}
	wantReport, err := os.ReadFile(refReport)
	if err != nil {
		t.Fatal(err)
	}

	// Daemon, round 1: submit, then SIGKILL as soon as the job starts.
	storeDir := filepath.Join(dir, "store")
	startedCh := make(chan string, 1)
	base, daemon1, log1 := startCampaignd(t, bin, storeDir, `msg="job started"`, startedCh)
	defer daemon1.Process.Kill()

	submit := exec.Command(bin, "submit", "-service", base,
		"-agents", agents, "-tests", tests)
	submitOut, err := submit.CombinedOutput()
	if err != nil {
		t.Fatalf("soft submit: %v\n%s", err, submitOut)
	}
	fields := strings.Fields(string(submitOut))
	if len(fields) < 2 || !strings.HasPrefix(fields[1], "j") {
		t.Fatalf("soft submit output %q carries no job id", submitOut)
	}
	jobID := fields[1]

	select {
	case line := <-startedCh:
		t.Logf("SIGKILLing campaignd after %q", line)
	case <-time.After(60 * time.Second):
		t.Fatalf("job never started\n%s", log1)
	}
	if err := daemon1.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatal(err)
	}
	daemon1.Wait()

	// Daemon, round 2: same store, fresh process. The journal replay must
	// requeue the interrupted job and run it to completion.
	base, daemon2, log2 := startCampaignd(t, bin, storeDir, "", nil)
	defer func() {
		daemon2.Process.Kill()
		daemon2.Wait()
	}()

	deadline := time.Now().Add(3 * time.Minute)
	var j campaignJobView
	for {
		j = getJob(t, base, jobID)
		if j.State == "done" || j.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q after restart\n%s", jobID, j.State, log2)
		}
		time.Sleep(200 * time.Millisecond)
	}
	if j.State != "done" {
		t.Fatalf("resumed job %s failed: %s\n%s", jobID, j.Error, log2)
	}
	if j.Restarts < 1 {
		t.Errorf("job %s restarts = %d, want >= 1 (the journal must witness the kill)", jobID, j.Restarts)
	}

	// The resumed report must match the uninterrupted reference exactly.
	gotReport := filepath.Join(dir, "resumed.report")
	fetch := exec.Command(bin, "fetch", "-service", base, "-o", gotReport, jobID)
	if out, err := fetch.CombinedOutput(); err != nil {
		t.Fatalf("soft fetch: %v\n%s", err, out)
	}
	got, err := os.ReadFile(gotReport)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantReport) {
		t.Fatalf("resumed campaign report differs from uninterrupted run\n--- daemon log ---\n%s", log2)
	}

	// `soft jobs` lists the job with its restart count.
	jobs := exec.Command(bin, "jobs", "-service", base)
	jobsOut, err := jobs.CombinedOutput()
	if err != nil {
		t.Fatalf("soft jobs: %v\n%s", err, jobsOut)
	}
	if !strings.Contains(string(jobsOut), jobID) || !strings.Contains(string(jobsOut), "done") {
		t.Errorf("soft jobs output misses the finished job:\n%s", jobsOut)
	}

	// Remote-matrix path: the same campaign through `soft matrix -service`
	// — served warm from the daemon's store, byte-identical bytes again.
	// -trace rides along: the client must download the daemon's segment
	// bundle and merge it into one Chrome timeline whose job span lives on
	// a different (remote) track than the client's own campaign span.
	remoteReport := filepath.Join(dir, "remote.report")
	remoteTrace := filepath.Join(dir, "remote-trace.json")
	remote := exec.Command(bin, "matrix", "-agents", agents, "-tests", tests,
		"-service", base, "-trace", remoteTrace, "-o", remoteReport)
	if out, err := remote.CombinedOutput(); err != nil {
		t.Fatalf("soft matrix -service: %v\n%s", err, out)
	}
	remoteBytes, err := os.ReadFile(remoteReport)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remoteBytes, wantReport) {
		t.Fatal("soft matrix -service report differs from the local reference")
	}
	assertServiceTrace(t, remoteTrace)

	// Observability smoke: the daemon serves Prometheus text on GET
	// /metrics — the campaign lifecycle series must be present (they are
	// registered at init, so presence is version-skew-proof even when a
	// counter is still zero) — and `soft stats` renders both views.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	metricsBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d\n%s", resp.StatusCode, metricsBody)
	}
	for _, want := range []string{
		"soft_campaignd_jobs_submitted_total",
		"soft_campaignd_jobs_done_total",
		"soft_campaignd_run_duration_ns_count",
		"soft_sat_solves_total",
		"soft_store_result_hits_total",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("/metrics misses series %s", want)
		}
	}
	stats := exec.Command(bin, "stats", "-service", base, "-job", jobID)
	statsOut, err := stats.CombinedOutput()
	if err != nil {
		t.Fatalf("soft stats -job: %v\n%s", err, statsOut)
	}
	if !strings.Contains(string(statsOut), jobID) || !strings.Contains(string(statsOut), "done") {
		t.Errorf("soft stats -job output misses the job record:\n%s", statsOut)
	}
	statsAll := exec.Command(bin, "stats", "-service", base)
	statsAllOut, err := statsAll.CombinedOutput()
	if err != nil {
		t.Fatalf("soft stats: %v\n%s", err, statsAllOut)
	}
	if !strings.Contains(string(statsAllOut), "soft_campaignd_jobs_done_total") {
		t.Errorf("soft stats output misses the registry:\n%s", statsAllOut)
	}

	// Graceful shutdown: SIGTERM exits 0 after requeueing running jobs.
	if err := daemon2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := daemon2.Wait(); err != nil {
		t.Fatalf("campaignd did not exit cleanly on SIGTERM: %v\n%s", err, log2)
	}
}

// assertServiceTrace checks a `soft matrix -service -trace` file is one
// merged Chrome timeline: the client's own campaign span on the local
// track plus the daemon's job span merged onto a remote track.
func assertServiceTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read service trace: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int64  `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("service trace is not valid JSON: %v", err)
	}
	var campaignPid, jobPid int64 = -1, -1
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if strings.HasPrefix(ev.Name, "campaign:") {
			campaignPid = ev.Pid
		}
		if strings.HasPrefix(ev.Name, "job:") {
			jobPid = ev.Pid
		}
	}
	if campaignPid < 0 {
		t.Errorf("service trace misses the client campaign: span (%d events)", len(tf.TraceEvents))
	}
	if jobPid < 0 {
		t.Errorf("service trace misses the daemon job: span (%d events)", len(tf.TraceEvents))
	}
	if campaignPid >= 0 && jobPid >= 0 && campaignPid == jobPid {
		t.Errorf("campaign and job spans share pid %d: the daemon bundle was not merged onto its own track", jobPid)
	}
}
