package main

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMatrixCLI drives a fleetless 2×2 campaign through the CLI: cold run
// with a store, warm re-run hitting every cell, byte-identical canonical
// reports, and per-cell results files matching `soft explore`.
func TestMatrixCLI(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	cellsDir := filepath.Join(dir, "cells")
	coldReport := filepath.Join(dir, "cold.report")
	warmReport := filepath.Join(dir, "warm.report")

	args := []string{
		"matrix", "-agents", "ref,modified", "-tests", "Packet Out,Stats Request",
		"-store", storeDir, "-code-version", "cli-test",
	}
	stdout, stderr, code := runCLI(t, append(args, "-results-dir", cellsDir, "-o", coldReport)...)
	if code != 0 {
		t.Fatalf("cold soft matrix: exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		"matrix ref,modified", "4 cells (4 explored, 0 cached)",
		"cell ref / Packet Out:", "cell modified / Stats Request:",
		"check Packet Out: ref vs modified:", "inconsistencies",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("cold matrix output misses %q:\n%s", want, stdout)
		}
	}

	// Per-cell results files must equal individual soft explore runs
	// (campaigns use the canonical cut; these cells are exhaustive, so a
	// plain explore matches byte for byte modulo wall clock).
	explored := filepath.Join(dir, "explored.results")
	if _, stderr, code := runCLI(t, "explore", "-agent", "ref", "-test", "Packet Out", "-workers", "4", "-o", explored); code != 0 {
		t.Fatalf("soft explore: exit %d\n%s", code, stderr)
	}
	wantCell, err := os.ReadFile(explored)
	if err != nil {
		t.Fatal(err)
	}
	gotCell, err := os.ReadFile(filepath.Join(cellsDir, "ref--Packet_Out.results"))
	if err != nil {
		t.Fatal(err)
	}
	if string(normalizeElapsed(t, gotCell)) != string(normalizeElapsed(t, wantCell)) {
		t.Fatal("matrix cell results differ from individual soft explore")
	}

	// Warm run: every cell cached, canonical report byte-identical.
	stdout, stderr, code = runCLI(t, append(args, "-o", warmReport, "-v")...)
	if code != 0 {
		t.Fatalf("warm soft matrix: exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "4 cells (0 explored, 4 cached)") {
		t.Errorf("warm run did not hit the store for every cell:\n%s", stdout)
	}
	if !strings.Contains(stderr, "result store: 4 hits") || !strings.Contains(stderr, "grouping cache: 4 hits") {
		t.Errorf("warm -v output misses cache statistics:\n%s", stderr)
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
		t.Fatalf("canonical reports differ between cold and warm runs\n--- cold\n%s\n--- warm\n%s", cold, warm)
	}
	if !strings.HasPrefix(string(cold), "soft-matrix v1\n") {
		t.Fatalf("report does not start with the versioned magic line:\n%s", cold[:60])
	}

	// A different code version against the same store is refused up front
	// (exit 2) — silently reusing it would miss every entry, and two
	// unstamped binaries would collide on the fallback version.
	_, stderr, code = runCLI(t, "matrix", "-agents", "ref,modified", "-tests", "Packet Out,Stats Request",
		"-store", storeDir, "-code-version", "cli-test-2")
	if code != 2 {
		t.Fatalf("version-skewed store reuse: exit %d, want 2 (stderr %q)", code, stderr)
	}
	for _, want := range []string{"soft matrix:", "cli-test", "cli-test-2", "-store-migrate"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("skew message misses %q:\n%s", want, stderr)
		}
	}

	// -store-migrate re-stamps the store; the new version then re-explores
	// (old entries stay keyed under their own version).
	stdout, _, code = runCLI(t, "matrix", "-agents", "ref,modified", "-tests", "Packet Out,Stats Request",
		"-store", storeDir, "-code-version", "cli-test-2", "-store-migrate")
	if code != 0 {
		t.Fatalf("migrated matrix: exit %d", code)
	}
	if !strings.Contains(stdout, "(4 explored, 0 cached)") {
		t.Errorf("code-version bump still hit the cache:\n%s", stdout)
	}
}

// TestMatrixCLIUsageErrors pins exit code 2 for bad arguments. -shard-depth
// is a plain non-negative integer, and the message names the flag.
func TestMatrixCLIUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"matrix", "-agents", "no-such-agent"},
		{"matrix", "-tests", "No Such Test"},
		{"matrix", "-shard-depth", "banana"},
		{"matrix", "-shard-depth", "auto"},
		{"matrix", "-shard-depth", "-1"},
		{"matrix", "-pprof"},
		{"matrix", "-service", "http://127.0.0.1:1", "-store", "somewhere"},
		{"matrix", "-service", "http://127.0.0.1:1", "-addr", ":0"},
		{"matrix", "extra-arg"},
	} {
		_, stderr, code := runCLI(t, args...)
		if code != 2 {
			t.Errorf("soft %v: exit %d, want 2 (stderr %q)", args, code, stderr)
		}
		if !strings.Contains(stderr, "soft "+args[0]+":") {
			t.Errorf("soft %v error not prefixed: %q", args, stderr)
		}
		if args[1] == "-shard-depth" && !strings.Contains(stderr, "shard-depth") {
			t.Errorf("soft %v error does not name the flag: %q", args, stderr)
		}
	}
}

// TestWorkVersionMismatchExit2 is the satellite bugfix property: a worker
// whose protocol version the coordinator refuses exits 2 with a
// "soft work:"-prefixed message naming the mismatch, not a raw decode
// error.
func TestWorkVersionMismatchExit2(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Read the hello frame, refuse it: [len][type=7][uvarint want=99].
		hdr := make([]byte, 4)
		if _, err := conn.Read(hdr); err != nil {
			return
		}
		body := make([]byte, 1024)
		conn.Read(body)
		conn.Write([]byte{0, 0, 0, 2, 7, 99})
	}()

	_, stderr, code := runCLI(t, "work", "-addr", ln.Addr().String())
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "soft work:") || !strings.Contains(stderr, "protocol version mismatch") {
		t.Fatalf("error message wrong:\n%s", stderr)
	}
	if !strings.Contains(stderr, "v99") || !strings.Contains(stderr, "this binary speaks") {
		t.Fatalf("mismatch detail missing:\n%s", stderr)
	}
}
