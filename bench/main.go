// Command softbench is the SOFT benchmark. It runs named workloads
// against the system's Go entry points, times every call into a layer from
// its own code, checks every output against bench/golden.json, and prints
// each metric by name with its unit. Run it from the repository root with
// bash bench/run.sh (see README.md for the flags and workloads).
//
// Every repetition is a closed loop in a fresh child process: one process,
// one outstanding call, fleet traffic over loopback only.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repDeadline is the longest a child repetition may run. It is then killed
// with its fleet workers, and its ops count as failed.
const repDeadline = 120 * time.Second

type config struct {
	seed    int64
	seconds int
	dir     string
	golden  string
	smoke   bool
	record  bool
	exe     string
	flags   map[string]string
}

func main() {
	var (
		workloadF = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "permutes the order of cells and checks inside each workload; outputs are identical for every seed")
		seconds   = flag.Int("seconds", 25, "timed budget per run: repetitions start while the next one is expected to end within it")
		trace     = flag.Int("trace", -1, "0: end-to-end metrics from untraced repetitions; 1: per-layer metrics from a traced repetition after them; -1: both")
		dir       = flag.String("dir", ".bench_build", "directory for temporary stores, traces and results files")
		golden    = flag.String("golden", "bench/golden.json", "golden outputs file")
		smoke     = flag.Bool("smoke", false, "one repetition on small tests (Packet Out / Stats Request) with a 1-worker fleet")
		record    = flag.Bool("record-golden", false, "write the outputs of this invocation to the golden file instead of checking them")

		one      = flag.String("one", "", "internal: run one repetition of this workload")
		role     = flag.String("role", roleRep, "internal: rep, traced or fill")
		storeDir = flag.String("store", "", "internal: store directory of a warm repetition")
		work     = flag.String("work", "", "internal: run as a fleet worker of this coordinator address")
		name     = flag.String("name", "", "internal: fleet worker name")
	)
	flag.Parse()

	if *work != "" {
		os.Exit(workerMain(*work, *name))
	}
	if *one != "" {
		w, ok := workloadByName(*one)
		if !ok {
			fmt.Fprintf(os.Stderr, "softbench: unknown workload %q\n", *one)
			os.Exit(2)
		}
		os.Exit(childMain(w, *role, *seed, *smoke, *storeDir, *dir))
	}

	var selected []*workload
	if *workloadF == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*workloadF); ok {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "softbench: unknown workload %q\n", *workloadF)
		os.Exit(2)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "softbench:", err)
		os.Exit(1)
	}
	cfg := &config{
		seed: *seed, seconds: *seconds, dir: *dir, golden: *golden,
		smoke: *smoke, record: *record, exe: exe,
		flags: map[string]string{},
	}
	flag.VisitAll(func(f *flag.Flag) { cfg.flags[f.Name] = f.Value.String() })
	os.Exit(parentMain(cfg, selected, *trace))
}

// runSummary is one run of one workload: untraced repetitions (end-to-end
// metrics), then, when traced, one traced repetition (per-layer metrics).
type runSummary struct {
	Workload   string          `json:"workload"`
	Traced     bool            `json:"traced"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"`
	ErrorRate  float64         `json:"error_rate"`
	Mismatches []string        `json:"mismatches,omitempty"`
	EndToEnd   map[string]stat `json:"end_to_end"`
	PerLayer   map[string]stat `json:"per_layer,omitempty"`
	Reps       []repRecord     `json:"reps"`
}

// repRecord is the parent's view of one child process.
type repRecord struct {
	Role     string  `json:"role"`
	SetupS   float64 `json:"setup_s"`
	WallS    float64 `json:"wall_s"`
	Items    int64   `json:"items"`
	PeakRSS  float64 `json:"peak_rss_mb"`
	Ops      int     `json:"ops"`
	Failed   int     `json:"failed"`
	Error    string  `json:"error,omitempty"`
	layers   map[string]float64
	total    time.Duration
	complete bool
}

// stat is one metric over a run's samples.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// goldenSet checks op digests against the golden file, or collects them
// when recording.
type goldenSet struct {
	record bool
	want   map[string]string
}

func (g *goldenSet) check(o op) error {
	if o.Err != "" {
		return errors.New(o.Err)
	}
	if o.Digest == "" {
		return nil
	}
	want, ok := g.want[o.Key]
	switch {
	case g.record && !ok:
		g.want[o.Key] = o.Digest
	case !ok:
		return fmt.Errorf("no golden for %q", o.Key)
	case want != o.Digest:
		return fmt.Errorf("got %s, golden %s", o.Digest, want)
	}
	return nil
}

// parentMain runs the selected workloads. trace selects the metrics of the
// result line: 0 end-to-end, 1 per-layer, -1 both.
func parentMain(cfg *config, selected []*workload, trace int) int {
	setSubreaper()
	g := &goldenSet{record: cfg.record, want: map[string]string{}}
	if data, err := os.ReadFile(cfg.golden); err == nil {
		if err := json.Unmarshal(data, &g.want); err != nil {
			fmt.Fprintf(os.Stderr, "softbench: %s: %v\n", cfg.golden, err)
			return 1
		}
	} else if !cfg.record {
		fmt.Fprintln(os.Stderr, "softbench:", err)
		return 1
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		children.interrupt()
	}()

	host := hostManifest(cfg)
	var runs []*runSummary
	for _, w := range selected {
		s := runWorkload(cfg, g, w, trace != 0)
		if children.interrupted() {
			fmt.Fprintln(os.Stderr, "softbench: interrupted")
			return 130
		}
		printRun(s)
		if err := writeResults(cfg, host, s); err != nil {
			fmt.Fprintln(os.Stderr, "softbench:", err)
		}
		runs = append(runs, s)
	}
	if cfg.record {
		data, _ := json.MarshalIndent(g.want, "", "  ")
		if err := os.WriteFile(cfg.golden, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "softbench:", err)
			return 1
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, s := range runs {
		final.Attempted += s.Attempted
		final.Failed += s.Failed
		var shown []map[string]stat
		if trace != 1 {
			shown = append(shown, s.EndToEnd)
		}
		if trace != 0 {
			shown = append(shown, s.PerLayer)
		}
		for _, metrics := range shown {
			for name, st := range metrics {
				if len(runs) > 1 {
					name = s.Workload + "/" + name
				}
				final.Metrics[name] = value{st.Median, st.Unit}
			}
		}
	}
	final.Correct = final.Failed == 0
	out, _ := json.Marshal(final)
	fmt.Println(string(out))
	if !final.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload: untraced repetitions while the budget
// lasts, then, when traced, one traced repetition.
func runWorkload(cfg *config, g *goldenSet, w *workload, traced bool) *runSummary {
	s := &runSummary{Workload: w.name, Traced: traced, EndToEnd: map[string]stat{}}
	account := func(rec *repRecord, res *repResult) {
		if res == nil {
			// A repetition without a result — killed at its deadline or
			// crashed — fails every cell it should have produced.
			n := len(agentNames) * len(w.tests)
			s.Attempted += n
			s.Failed += n
			s.Mismatches = append(s.Mismatches, rec.Role+": "+rec.Error)
			return
		}
		for _, o := range res.Ops {
			s.Attempted++
			if err := g.check(o); err != nil {
				s.Failed++
				rec.Failed++
				s.Mismatches = append(s.Mismatches, fmt.Sprintf("%s %s: %v", rec.Role, o.Key, err))
			}
		}
	}
	run := func(role, storeDir string) repRecord {
		rec, res := spawn(cfg, w, role, storeDir)
		account(&rec, res)
		if res != nil {
			rec.Ops = len(res.Ops)
		}
		s.Reps = append(s.Reps, rec)
		return rec
	}

	var setupRun float64
	storeDir := ""
	if w.fill {
		dir, err := os.MkdirTemp(filepath.Join(cfg.dir, "tmp"), "warm-store-")
		if err == nil {
			defer os.RemoveAll(dir)
			storeDir = dir
			setupRun = run(roleFill, storeDir).total.Seconds()
		} else {
			s.Attempted++
			s.Failed++
			s.Mismatches = append(s.Mismatches, "fill: "+err.Error())
		}
	}

	start := time.Now()
	var longest time.Duration
	var walls, itemsPerS, rss, setups []float64
	for !children.interrupted() {
		rec := run(roleRep, storeDir)
		if rec.complete && rec.WallS > 0 {
			walls = append(walls, rec.WallS)
			itemsPerS = append(itemsPerS, float64(rec.Items)/rec.WallS)
			rss = append(rss, rec.PeakRSS)
			setups = append(setups, setupRun+rec.SetupS)
		}
		if rec.total > longest {
			longest = rec.total
		}
		if cfg.smoke || time.Since(start)+longest > time.Duration(cfg.seconds)*time.Second {
			break
		}
	}
	s.EndToEnd["items_per_s"] = summarize("1/s", itemsPerS)
	s.EndToEnd["peak_rss_mb"] = summarize("MiB", rss)
	s.EndToEnd["setup_s"] = summarize("s", setups)

	if traced && !children.interrupted() {
		tr := run(roleTraced, storeDir)
		s.PerLayer = map[string]stat{}
		for _, m := range perLayer {
			s.PerLayer[m.name] = single(m.unit, tr.layers[m.name])
		}
		if tr.complete && len(walls) > 0 {
			s.PerLayer["bench.trace_overhead_ratio"] = single("ratio", tr.WallS/summarize("s", walls).Median-1)
		}
	}
	if s.Attempted > 0 {
		s.ErrorRate = float64(s.Failed) / float64(s.Attempted)
	}
	return s
}

// childSet tracks the running child's process group so a signal can kill
// it.
type childSet struct {
	mu   sync.Mutex
	pgid int
	intr bool
}

var children childSet

func (c *childSet) start(pgid int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pgid = pgid
	return !c.intr
}

func (c *childSet) done() {
	c.mu.Lock()
	c.pgid = 0
	c.mu.Unlock()
}

func (c *childSet) interrupt() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.intr = true
	if c.pgid != 0 {
		syscall.Kill(-c.pgid, syscall.SIGKILL)
	}
}

func (c *childSet) interrupted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.intr
}

// spawn runs one child repetition in its own process group and returns the
// parent's record and the child's result (nil when it produced none). The
// whole group — the child and any fleet workers it started — is killed and
// reaped before spawn returns, on every path.
func spawn(cfg *config, w *workload, role, storeDir string) (repRecord, *repResult) {
	rec := repRecord{Role: role}
	args := []string{"-one", w.name, "-role", role, "-seed", strconv.FormatInt(cfg.seed, 10), "-dir", cfg.dir}
	if storeDir != "" {
		args = append(args, "-store", storeDir)
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(cfg.exe, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		rec.Error = err.Error()
		return rec, nil
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		rec.Error = err.Error()
		return rec, nil
	}
	pgid := cmd.Process.Pid
	defer reapGroup(pgid)
	if !children.start(pgid) {
		syscall.Kill(-pgid, syscall.SIGKILL)
	}
	defer children.done()
	timer := time.AfterFunc(repDeadline, func() { syscall.Kill(-pgid, syscall.SIGKILL) })
	defer timer.Stop()

	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64*1024), 64*1024*1024)
	for sc.Scan() {
		if line := sc.Text(); line == "ready" {
			rec.SetupS = time.Since(start).Seconds()
		} else {
			last = line
		}
	}
	waitErr := cmd.Wait()
	rec.total = time.Since(start)
	if !timer.Stop() {
		rec.Error = fmt.Sprintf("killed at the %s deadline", repDeadline)
		return rec, nil
	}
	if waitErr != nil {
		rec.Error = waitErr.Error()
		return rec, nil
	}
	var res repResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		rec.Error = fmt.Sprintf("bad result line %q: %v", last, err)
		return rec, nil
	}
	rec.WallS, rec.Items, rec.layers, rec.complete = res.WallS, res.Items, res.Layers, true
	rec.PeakRSS = float64(res.RSSKB+res.WorkerRSSKB) / 1024
	return rec, &res
}

// setSubreaper makes this process the reaper of its orphaned descendants,
// so fleet workers whose repetition died can be reaped here.
func setSubreaper() {
	const prSetChildSubreaper = 36
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0)
}

// reapGroup kills whatever is left of a repetition's process group and
// waits until each process has ended.
func reapGroup(pgid int) {
	syscall.Kill(-pgid, syscall.SIGKILL)
	for {
		var ws syscall.WaitStatus
		_, err := syscall.Wait4(-pgid, &ws, 0, nil)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return
		}
	}
}

func single(unit string, v float64) stat {
	return stat{Unit: unit, Median: v, Q1: v, Q3: v, Min: v, Max: v, N: 1}
}

// summarize reports the median and the quartiles as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method).
func summarize(unit string, xs []float64) stat {
	st := stat{Unit: unit, N: len(xs)}
	if len(xs) == 0 {
		return st
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	st.Min, st.Max = s[0], s[len(s)-1]
	n := len(s)
	if n%2 == 1 {
		st.Median = s[n/2]
	} else {
		st.Median = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 {
		st.Q1, st.Q3 = st.Median, st.Median
		return st
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	st.Q1, st.Q3 = q(1), q(3)
	return st
}

func printRun(s *runSummary) {
	fmt.Printf("%s: %d ops, %d failed, error_rate %g, %d child processes\n",
		s.Workload, s.Attempted, s.Failed, s.ErrorRate, len(s.Reps))
	for _, m := range s.Mismatches {
		fmt.Printf("  FAIL %s\n", m)
	}
	show := func(defs []metricDef, metrics map[string]stat) {
		for _, d := range defs {
			st, ok := metrics[d.name]
			if !ok {
				continue
			}
			if st.N > 1 {
				fmt.Printf("  %-28s %14.6g %-6s median of %d (q1 %.6g, q3 %.6g, min %.6g, max %.6g)\n",
					d.name, st.Median, st.Unit, st.N, st.Q1, st.Q3, st.Min, st.Max)
			} else {
				fmt.Printf("  %-28s %14.6g %s\n", d.name, st.Median, st.Unit)
			}
		}
	}
	show(endToEnd, s.EndToEnd)
	if s.PerLayer != nil {
		fmt.Println("  traced repetition:")
		show(perLayer, s.PerLayer)
		fmt.Println("  (bitblast.probe_*: a fresh-blaster replay of ref path conditions, not the engine's incremental sessions)")
	}
}

// hostManifest records where and how the numbers were taken.
func hostManifest(cfg *config) map[string]any {
	commit, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, st := range bi.Settings {
			switch st.Key {
			case "vcs.revision":
				commit = st.Value
			case "vcs.modified":
				dirty = st.Value == "true"
			}
		}
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"cpu": cpu, "commit": commit, "dirty": dirty,
		"flags": cfg.flags,
	}
}

// writeResults writes one run's results file under <dir>/results.
func writeResults(cfg *config, host map[string]any, s *runSummary) error {
	mode := 0
	if s.Traced {
		mode = 1
	}
	path := filepath.Join(cfg.dir, "results", fmt.Sprintf("%s-trace%d-seed%d.json", s.Workload, mode, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"schema": "softbench v1", "host": host, "seed": cfg.seed, "smoke": cfg.smoke,
		"run": s,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
