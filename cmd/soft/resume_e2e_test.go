package main

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMatrixStoreResumeE2E is the resume acceptance test, multi-process
// edition: it SIGKILLs a `soft matrix -store` campaign — no flush, no
// goodbye — right after its first cell is explored, re-runs the same
// campaign on the same store, and asserts the resumed report is
// byte-identical to an uninterrupted store-less run, with the killed run's
// cell served from the store and the rest explored.
//
// The matrix puts a fast cell (ref / Packet Out, a few ms) first and two
// FlowMod cells plus their crosscheck (over a second) after it, so the
// kill always lands mid-campaign; a first run that finishes before the
// kill fails the test.
func TestMatrixStoreResumeE2E(t *testing.T) {
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
	campaign := []string{"matrix", "-agents", "ref,modified", "-tests", "Packet Out,FlowMod", "-timeout", "2m"}

	// The uninterrupted reference: no store at all.
	refReport := filepath.Join(dir, "ref.report")
	ref := exec.Command(bin, append(campaign, "-o", refReport)...)
	if out, err := ref.CombinedOutput(); err != nil {
		t.Fatalf("reference soft matrix: %v\n%s", err, out)
	}
	want, err := os.ReadFile(refReport)
	if err != nil {
		t.Fatal(err)
	}

	// Round 1: SIGKILL on the first explored cell.
	storeDir := filepath.Join(dir, "store")
	killedReport := filepath.Join(dir, "killed.report")
	first := exec.Command(bin, append(campaign, "-store", storeDir, "-progress", "-o", killedReport)...)
	stderr, err := first.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Start(); err != nil {
		t.Fatalf("start soft matrix: %v", err)
	}
	defer first.Process.Kill()
	log := &lockedBuf{}
	explored := make(chan string, 1)
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			log.add(line)
			if !sent && strings.Contains(line, `msg="cell explored"`) {
				sent = true
				explored <- line
			}
		}
	}()
	select {
	case line := <-explored:
		t.Logf("SIGKILLing soft matrix after %q", line)
	case <-scanned:
		first.Wait()
		t.Fatalf("soft matrix exited without exploring a cell\n%s", log)
	case <-time.After(60 * time.Second):
		t.Fatalf("no cell explored within 60s\n%s", log)
	}
	if err := first.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v (the campaign ended before the kill)\n%s", err, log)
	}
	<-scanned
	werr := first.Wait()
	var exitErr *exec.ExitError
	if !errors.As(werr, &exitErr) {
		t.Fatalf("killed soft matrix: wait = %v, want death by SIGKILL\n%s", werr, log)
	}
	if ws, ok := exitErr.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("soft matrix exited (%v) before the kill landed\n%s", werr, log)
	}
	if _, err := os.Stat(killedReport); err == nil {
		t.Fatalf("the killed campaign wrote its report: the kill landed after the campaign finished\n%s", log)
	}

	// Round 2: same store, fresh process.
	resumedReport := filepath.Join(dir, "resumed.report")
	second := exec.Command(bin, append(campaign, "-store", storeDir, "-progress", "-o", resumedReport)...)
	var stdout, stderr2 bytes.Buffer
	second.Stdout, second.Stderr = &stdout, &stderr2
	if err := second.Run(); err != nil {
		t.Fatalf("resumed soft matrix: %v\n%s", err, stderr2.String())
	}
	got, err := os.ReadFile(resumedReport)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed campaign report differs from the uninterrupted run\n--- resumed stdout ---\n%s", stdout.String())
	}

	// The rerun must both reuse the killed run's work and finish the rest.
	var cached, fresh int
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "cell ") {
			continue
		}
		if strings.Contains(line, "[cached]") {
			cached++
		} else {
			fresh++
		}
	}
	if cached < 1 || fresh < 1 {
		t.Fatalf("resumed run served %d cells from the store and explored %d, want at least one of each\n%s",
			cached, fresh, stdout.String())
	}
	t.Logf("resumed: %d cells cached, %d explored", cached, fresh)
}
