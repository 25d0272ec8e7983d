package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct{ Value float64 }
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and softbench's
// workload and metric lists in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, softbench %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, softbench %q %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, softbench %d", len(c.file), len(c.defs))
		}
		for i, d := range c.defs {
			if f := c.file[i]; f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, softbench %+v", i, f, d)
			}
		}
	}
}

func buildSoftbench(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "softbench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return exe
}

// runSoftbench runs softbench and returns its exit code and last stdout line.
func runSoftbench(t *testing.T, exe string, args ...string) (int, resultLine) {
	t.Helper()
	cmd := exec.Command(exe, append([]string{"-smoke", "-dir", t.TempDir()}, args...)...)
	out, err := cmd.Output()
	code := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return code, res
}

// TestSmoke runs every workload once on small tests, untraced and traced,
// and checks that every metric BENCHMARK.json names is reported with a
// finite value and that every output matches its golden.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	exe := buildSoftbench(t)
	for _, c := range []struct {
		trace string
		names []struct{ Name, Unit, Better string }
	}{{"0", bf.EndToEnd}, {"1", bf.PerLayer}} {
		code, res := runSoftbench(t, exe, "-trace", c.trace, "-golden", "golden.json")
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace %s: exit %d, result %+v", c.trace, code, res)
		}
		for _, w := range bf.Workloads {
			for _, m := range c.names {
				v, ok := res.Metrics[w.Name+"/"+m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("trace %s: %s/%s missing or not finite (%v)", c.trace, w.Name, m.Name, v.Value)
				}
			}
		}
	}
}

// TestTamperedGoldenFails checks that an output differing from its golden
// counts as a failed op and makes softbench exit 1.
func TestTamperedGoldenFails(t *testing.T) {
	data, err := os.ReadFile("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	golden["cell+models/ref/Packet Out"] = strings.Repeat("0", 64)
	tampered := filepath.Join(t.TempDir(), "golden.json")
	data, _ = json.Marshal(golden)
	if err := os.WriteFile(tampered, data, 0o644); err != nil {
		t.Fatal(err)
	}
	exe := buildSoftbench(t)
	code, res := runSoftbench(t, exe, "-workload", "explore-flowmod", "-trace", "0", "-golden", tampered)
	if code != 1 || res.Correct || res.Failed == 0 {
		t.Fatalf("tampered golden: exit %d, result %+v; want exit 1 and failed ops", code, res)
	}
}
