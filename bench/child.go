package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/soft-testing/soft/internal/bitblast"
	"github.com/soft-testing/soft/internal/dist"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/obs"
	"github.com/soft-testing/soft/internal/solver"
	"github.com/soft-testing/soft/internal/sym"
)

// Child roles: a timed repetition, the traced repetition, or the store fill
// that is a warm workload's set-up.
const (
	roleRep    = "rep"
	roleTraced = "traced"
	roleFill   = "fill"
)

// op is one checked operation: an explored or looked-up cell, a results
// read, a grouping, a pair check or a fleet job. Digest, when set, must
// equal the golden under Key; Err marks a failed op.
type op struct {
	Key    string `json:"key,omitempty"`
	Digest string `json:"digest,omitempty"`
	Err    string `json:"err,omitempty"`
}

// repResult is what a child reports on its last stdout line.
type repResult struct {
	WallS float64 `json:"wall_s"`
	Items int64   `json:"items"`
	Ops   []op    `json:"ops"`
	// RSSKB is the child's own max RSS, WorkerRSSKB the sum of its fleet
	// workers' (KiB, from rusage).
	RSSKB       int64              `json:"rss_kb"`
	WorkerRSSKB int64              `json:"worker_rss_kb,omitempty"`
	Layers      map[string]float64 `json:"layers,omitempty"`
}

// rep is the state of one repetition inside its child process.
type rep struct {
	role         string
	traced       bool
	tests        []string
	rng          *rand.Rand
	store, tmp   string
	fleetWorkers int

	wall        float64 // seconds inside the timed section
	items       int64   // work units completed in the timed section
	ops         []op
	layers      map[string]float64
	inWindow    bool
	windowLayer float64 // layer seconds inside the timed section
	workerRSSKB int64
}

// permute returns a seed-determined permutation of xs.
func permute[T any](r *rep, xs []T) []T {
	out := make([]T, len(xs))
	for i, j := range r.rng.Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}

// ready tells the parent that set-up is over; the parent's clock from
// spawn to this line is the repetition's set-up time.
func (r *rep) ready() {
	os.Stdout.WriteString("ready\n")
}

// timed runs the timed section.
func (r *rep) timed(fn func()) {
	start := time.Now()
	r.inWindow = true
	fn()
	r.inWindow = false
	r.wall += time.Since(start).Seconds()
}

// layer times one call into a layer, under a span of the same name when
// tracing is on.
func (r *rep) layer(name string, fn func()) {
	sp := obs.StartSpan("bench:" + name)
	start := time.Now()
	fn()
	d := time.Since(start).Seconds()
	sp.End()
	r.layers[name] += d
	if r.inWindow {
		r.windowLayer += d
	}
}

func (r *rep) op(key, digest string, err error) {
	o := op{Key: key, Digest: digest}
	if err != nil {
		o.Err = err.Error()
	}
	r.ops = append(r.ops, o)
}

func (r *rep) set(name string, v float64) { r.layers[name] = v }
func (r *rep) add(name string, v float64) { r.layers[name] += v }
func (r *rep) get(name string) float64    { return r.layers[name] }

func (r *rep) addExplore(res *harness.Result) {
	r.add("harness.paths", float64(len(res.Paths)))
	r.add("harness.infeasible", float64(res.Infeasible))
	r.add("symexec.branch_queries", float64(res.BranchQueries))
	r.addSolver(res.SolverStats)
}

func (r *rep) addSolver(s solver.Stats) {
	r.add("solver.queries", float64(s.Queries))
	r.add("solver.cache_hits", float64(s.CacheHits))
	r.add("solver.fastpath_const", float64(s.FastPathConst))
	r.add("solver.sat_queries", float64(s.SatQueries))
	r.add("solver.unsat_queries", float64(s.UnsatQueries))
	r.add("solver.solve_s", s.SolveTime.Seconds())
	r.add("solver.clauses", float64(s.ClausesTotal))
	r.add("solver.aux_vars", float64(s.AuxVarsTotal))
}

// counterSample is a snapshot of the always-on process counters.
type counterSample struct {
	prom                     map[string]float64
	internHits, internMisses uint64
	sat                      obs.HistogramSnapshot
}

// sample reads the counters: the registry through its Prometheus
// rendering (most counters are unexported), plus the intern table and the
// SAT latency histogram.
func sample() counterSample {
	var buf bytes.Buffer
	obs.WritePrometheus(&buf)
	s := counterSample{prom: map[string]float64{}, sat: bitblast.MSolveLatency.Snapshot()}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, v, _ := strings.Cut(line, " ")
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			s.prom[name] = f
		}
	}
	s.internHits, s.internMisses = sym.InternStats()
	return s
}

// counters records the counter deltas over a timed section.
func (r *rep) counters(before, after counterSample) {
	d := func(name string) float64 { return after.prom[name] - before.prom[name] }
	r.add("symexec.steals", d("soft_explore_steals_total"))
	r.add("symexec.donations", d("soft_explore_donations_total"))
	r.add("bitblast.assumption_solves", d("soft_sat_assumption_solves_total"))
	r.add("bitblast.constraints_reused", d("soft_sat_constraints_reused_total"))
	r.add("store.bytes_written", d("soft_store_bytes_written_total"))
	r.add("store.bytes_read", d("soft_store_bytes_read_total"))
	r.add("store.result_hits", d("soft_store_result_hits_total"))
	r.add("store.result_misses", d("soft_store_result_misses_total"))
	r.add("dist.remote_solves", d("soft_fleet_remote_sat_solves_total"))
	r.add("dist.remote_solve_s", d("soft_fleet_remote_solve_nanos_total")/1e9)
	r.add("sym.intern_hits", float64(after.internHits-before.internHits))
	r.add("sym.intern_misses", float64(after.internMisses-before.internMisses))
	sat := after.sat.Sub(before.sat)
	r.add("sat.solves", float64(sat.Count()))
	r.add("sat.solve_s", float64(sat.Sum)/1e9)
	r.set("sat.solve_p50_us_le", float64(sat.Quantile(0.5))/1e3)
	r.set("sat.solve_p99_us_le", float64(sat.Quantile(0.99))/1e3)
}

// derive fills the ratio metrics once the repetition is done.
func (r *rep) derive() {
	ratio := func(name string, num, den float64) {
		if den > 0 {
			r.set(name, num/den)
		}
	}
	ratio("harness.useful_path_ratio", r.get("harness.paths"), r.get("harness.paths")+r.get("harness.infeasible"))
	ratio("sym.intern_hit_ratio", r.get("sym.intern_hits"), r.get("sym.intern_hits")+r.get("sym.intern_misses"))
	ratio("bench.layer_coverage", r.windowLayer, r.wall)
	r.set("bench.wall_s", r.wall)
}

// splitMatrix attributes a traced sched.RunMatrix call from the program's
// own spans inside the matrix span: harness.explore_s sums the local
// explore spans, dist.lease_s is the time some lease to a fleet worker is
// out, and sched.other_s is the matrix time no explore, store or lease span
// covers. The covered time is the matrix call's layer time, so
// bench.layer_coverage of a matrix workload is 1 - other_s / wall.
func (r *rep) splitMatrix(segs []obs.Segment) {
	var local []obs.SegmentEvent
	for _, s := range segs {
		if s.Pid == obs.LocalPid {
			local = s.Events
		}
	}
	var matrix *obs.SegmentEvent
	for i := range local {
		if local[i].Name == "bench:sched.matrix_s" {
			matrix = &local[i]
			break
		}
	}
	if matrix == nil {
		return
	}
	end := matrix.TS + matrix.Dur
	var inner, leases []span
	var explore int64
	for _, ev := range local {
		if ev.TS < matrix.TS || ev.TS+ev.Dur > end {
			continue
		}
		s := span{ev.TS, ev.TS + ev.Dur}
		switch {
		case strings.HasPrefix(ev.Name, "explore:"):
			explore += ev.Dur
		case strings.HasPrefix(ev.Name, "lease:"):
			leases = append(leases, s)
		case strings.HasPrefix(ev.Name, "store:"):
		default:
			continue
		}
		inner = append(inner, s)
	}
	covered := union(inner)
	r.set("harness.explore_s", float64(explore)/1e6)
	r.set("dist.lease_s", float64(union(leases))/1e6)
	r.set("sched.other_s", float64(matrix.Dur-covered)/1e6)
	r.windowLayer += float64(covered) / 1e6
}

// span is a trace interval in microseconds.
type span struct{ from, to int64 }

// union returns the length of the union of the intervals.
func union(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].from < spans[j].from })
	var covered, reach int64
	for _, s := range spans {
		if s.from > reach {
			reach = s.from
		}
		if s.to > reach {
			covered += s.to - reach
			reach = s.to
		}
	}
	return covered
}

// childMain runs one repetition of a workload and prints its result.
func childMain(w *workload, role string, seed int64, smoke bool, storeDir, dir string) int {
	r := &rep{
		role:         role,
		traced:       role == roleTraced,
		tests:        w.tests,
		rng:          rand.New(rand.NewSource(seed)),
		store:        storeDir,
		tmp:          filepath.Join(dir, "tmp"),
		fleetWorkers: 2,
		layers:       map[string]float64{},
	}
	if smoke {
		r.tests, r.fleetWorkers = w.smokeTests, 1
	}
	if err := os.MkdirAll(r.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "softbench:", err)
		return 1
	}
	var tracer *obs.Tracer
	if r.traced {
		tracer = obs.StartTracing()
	}
	if err := w.run(r); err != nil {
		r.op("setup", "", err)
	}
	if tracer != nil {
		tracer.Stop()
		segs := tracer.Drain()
		r.splitMatrix(segs)
		if err := writeTrace(filepath.Join(dir, "traces", w.name+".json"), segs); err != nil {
			r.op("trace", "", err)
		}
	}
	r.derive()
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	res := repResult{WallS: r.wall, Items: r.items, Ops: r.ops, RSSKB: ru.Maxrss, WorkerRSSKB: r.workerRSSKB}
	if r.traced {
		res.Layers = r.layers
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "softbench:", err)
		return 1
	}
	os.Stdout.Write(append(out, '\n'))
	return 0
}

func writeTrace(path string, segs []obs.Segment) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := (&obs.Bundle{Segments: segs}).WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// workerSet is the fleet workers one fleet-flowmod repetition starts: this
// binary in -work mode, in the repetition's process group, so the parent's
// group kill reaches them on every exit path.
type workerSet struct {
	cmds   []*exec.Cmd
	waited bool
}

func startWorkers(addr string, n int) (*workerSet, error) {
	ws := &workerSet{}
	exe, err := os.Executable()
	if err != nil {
		return ws, err
	}
	for i := 1; i <= n; i++ {
		cmd := exec.Command(exe, "-work", addr, "-name", fmt.Sprintf("bench-worker-%d", i))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return ws, fmt.Errorf("start fleet worker: %w", err)
		}
		ws.cmds = append(ws.cmds, cmd)
	}
	return ws, nil
}

// wait reaps the workers after the fleet closed, killing any still alive
// after timeout, and returns the sum of their max RSS in KiB.
func (ws *workerSet) wait(timeout time.Duration) int64 {
	ws.waited = true
	var rss int64
	for _, cmd := range ws.cmds {
		cmd := cmd
		t := time.AfterFunc(timeout, func() { cmd.Process.Kill() })
		cmd.Wait()
		t.Stop()
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss += ru.Maxrss
		}
	}
	return rss
}

// kill stops and reaps workers that wait did not reach (error paths and
// panics).
func (ws *workerSet) kill() {
	if ws.waited {
		return
	}
	ws.waited = true
	for _, cmd := range ws.cmds {
		cmd.Process.Kill()
		cmd.Wait()
	}
}

// workerMain is a fleet worker: it explores leases until the fleet shuts
// down.
func workerMain(addr, name string) int {
	if err := dist.Work(context.Background(), addr, dist.WorkerConfig{Name: name, Workers: 1}); err != nil {
		fmt.Fprintln(os.Stderr, "softbench worker:", err)
		return 1
	}
	return 0
}
