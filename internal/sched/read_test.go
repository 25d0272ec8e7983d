package sched

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestReportReadRoundTrip: Write∘ReadReport is the identity on canonical
// report bytes, for a real campaign with inconsistencies (ref vs modified)
// — the invariant that lets soft.ReadMatrixReport stand in for the
// campaign that wrote a `soft matrix -o` file.
func TestReportReadRoundTrip(t *testing.T) {
	rep, err := RunMatrix(context.Background(), testAgents, testTests, Options{
		Models: true, Workers: 2, CrossCheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inconsistencies() == 0 {
		t.Fatal("ref vs modified produced no inconsistencies; round trip would not cover witness lines")
	}
	want := reportBytes(t, rep)

	parsed, err := ReadReport(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("ReadReport: %v", err)
	}
	got := reportBytes(t, parsed)
	if !bytes.Equal(got, want) {
		t.Fatalf("Write(ReadReport(x)) != x\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}

	// The parsed summary is a faithful surface: same matrix, same counts.
	if len(parsed.Cells) != len(rep.Cells) || len(parsed.Checks) != len(rep.Checks) {
		t.Fatalf("parsed %d cells / %d checks, want %d / %d",
			len(parsed.Cells), len(parsed.Checks), len(rep.Cells), len(rep.Checks))
	}
	for i := range rep.Cells {
		if parsed.Cells[i].Paths != rep.Cells[i].Paths ||
			parsed.Cells[i].ResultHash != rep.Cells[i].ResultHash {
			t.Fatalf("cell %d summary drifted through the round trip", i)
		}
		if parsed.Cells[i].Result != nil {
			t.Fatal("parsed cells must not fabricate full results")
		}
	}
	if parsed.Inconsistencies() != rep.Inconsistencies() {
		t.Fatalf("parsed %d inconsistencies, want %d", parsed.Inconsistencies(), rep.Inconsistencies())
	}
}

// TestReadReportRejectsGarbage pins the error paths: wrong magic,
// truncation mid-structure, a count the input cannot hold.
func TestReadReportRejectsGarbage(t *testing.T) {
	if _, err := ReadReport(strings.NewReader("nonsense\n")); err == nil {
		t.Fatal("wrong magic accepted")
	}
	if _, err := ReadReport(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := ReadReport(strings.NewReader(matrixMagic + "\nagents 1\n")); err == nil {
		t.Fatal("truncated report accepted")
	}
	if _, err := ReadReport(strings.NewReader(matrixMagic + "\nagents 1\nagent \"a\"\ntests 0\ncells 1\ncell bogus\n")); err == nil {
		t.Fatal("malformed cell line accepted")
	}
	// A cell count far beyond the input is a truncated report, not an
	// allocation of that many cells.
	if _, err := ReadReport(strings.NewReader(matrixMagic + "\nagents 0\ntests 0\ncells 1125899906842624\n")); err == nil {
		t.Fatal("huge cell count accepted")
	}
}

// FuzzReadReport throws arbitrary bytes at the canonical-report reader,
// which parses `soft matrix -o` files from disk (soft.ReadMatrixReport):
// it must never panic, and whatever it accepts must re-render to a
// Write∘ReadReport fixed point.
func FuzzReadReport(f *testing.F) {
	f.Add([]byte(matrixMagic + "\nagents 0\ntests 0\ncells 0\nchecks 0\nend\n"))
	f.Add([]byte(matrixMagic + "\nagents 2\nagent \"ref\"\nagent \"modified\"\ntests 1\ntest \"Packet Out\"\n" +
		"cells 2\n" +
		"cell agent=\"ref\" test=\"Packet Out\" paths=146 truncated=false result=0123abcd\ncoverage 61.500000 48.250000\n" +
		"cell agent=\"modified\" test=\"Packet Out\" paths=137 truncated=true result=4567ef01\ncoverage 60.000000 47.000000\n" +
		"checks 1\n" +
		"check test=\"Packet Out\" a=\"ref\" b=\"modified\" groups=9x8 queries=72 inconsistencies=1 rootcauses=1 partial=false\n" +
		"inc a=3 b=0 acrashed=false bcrashed=true\nacanonical \"msg:PACKET_OUT\"\nbcanonical \"<crash>\"\n" +
		"witness po.buffer_id=4294967295 po.in_port=65533\n" +
		"end\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReadReport(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := rep.Write(&once); err != nil {
			t.Fatalf("Write of an accepted report: %v", err)
		}
		again, err := ReadReport(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-rendered report does not parse: %v\n%s", err, once.Bytes())
		}
		var twice bytes.Buffer
		if err := again.Write(&twice); err != nil {
			t.Fatalf("Write of the re-read report: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("Write∘ReadReport is not a fixed point:\n--- once ---\n%s\n--- twice ---\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
