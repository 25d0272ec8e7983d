package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/soft-testing/soft/internal/agents"
	_ "github.com/soft-testing/soft/internal/agents/modified"  // register "modified"
	_ "github.com/soft-testing/soft/internal/agents/ovs"       // register "ovs"
	_ "github.com/soft-testing/soft/internal/agents/refswitch" // register "ref"
	"github.com/soft-testing/soft/internal/bitblast"
	"github.com/soft-testing/soft/internal/crosscheck"
	"github.com/soft-testing/soft/internal/dist"
	"github.com/soft-testing/soft/internal/group"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/obs"
	"github.com/soft-testing/soft/internal/sched"
	"github.com/soft-testing/soft/internal/store"
	"github.com/soft-testing/soft/internal/sym"
)

// agentNames are the three built-in agents every workload covers.
var agentNames = []string{"ref", "ovs", "modified"}

// exploreWorkers is the engine parallelism of every in-process exploring
// call: one worker per core of the 2-core reference host, so no run has
// more busy threads than cores.
const exploreWorkers = 2

// codeVersion pins the store key's code component, so keys do not depend
// on how the softbench binary was stamped.
const codeVersion = "bench"

// workload is one named set of inputs. Each repetition runs in a fresh
// child process, so process-global state (the intern table, the metrics
// registry, the GC heap) starts cold, as it does for every soft CLI call.
type workload struct {
	name string
	why  string
	// tests are the Table 1 tests of a full run; smokeTests replace them
	// under -smoke.
	tests, smokeTests []string
	// fill marks workloads whose repetitions read a store that one cold
	// campaign filled before the run; that fill is the run's set-up.
	fill bool
	run  func(r *rep) error
}

var workloads = []*workload{
	{
		name:       "explore-flowmod",
		why:        "phase-1 engine alone: FlowMod on 3 agents with models on; replay, interning, encoding, SAT and model extraction, no store or crosscheck",
		tests:      []string{"FlowMod"},
		smokeTests: []string{"Packet Out"},
		run:        runExplore,
	},
	{
		name: "crosscheck-table1",
		why:  "phase 2 alone: read, group and crosscheck vendor hand-off results of 6 Table-1 tests x 3 agent pairs; no exploration in the timed section",
		// FlowMod is left out because its ref-vs-ovs crosscheck needs about
		// 8 GB of memory; Eth FlowMod only repeats Packet Out-shaped pairs at
		// twice the run time.
		tests:      []string{"Packet Out", "Stats Request", "Set Config", "CS FlowMods", "Concrete", "Short Symb"},
		smokeTests: []string{"Stats Request"},
		run:        runCrosscheck,
	},
	{
		name:       "campaign-store-cold",
		why:        "campaign into an empty store: exploration plus store writes for 9 FlowMod-family cells, models off",
		tests:      []string{"FlowMod", "CS FlowMods", "Eth FlowMod"},
		smokeTests: []string{"Packet Out", "Stats Request"},
		run:        runCampaignCold,
	},
	{
		name:       "campaign-store-warm",
		why:        "the same campaign against a filled store: store reads, results parsing and hashing only, zero solver work",
		tests:      []string{"FlowMod", "CS FlowMods", "Eth FlowMod"},
		smokeTests: []string{"Packet Out", "Stats Request"},
		fill:       true,
		run:        runCampaignWarm,
	},
	{
		name:       "fleet-flowmod",
		why:        "explore-flowmod's cells with models off on a 2-worker loopback fleet: isolates the dist layer's leasing, replay and wire costs",
		tests:      []string{"FlowMod"},
		smokeTests: []string{"Packet Out"},
		run:        runFleet,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func mustAgent(name string) agents.Agent {
	a, err := agents.ByName(name)
	if err != nil {
		panic(err) // agentNames are the built-in registrations
	}
	return a
}

func mustTest(name string) harness.Test {
	t, ok := harness.TestByName(name)
	if !ok {
		panic("unknown test " + name) // workload tests are Table 1 names
	}
	return t
}

// partialErr reports a truncated or cancelled result, which never counts
// as a correct output.
func partialErr(truncated, cancelled bool) error {
	if truncated || cancelled {
		return fmt.Errorf("partial result (truncated=%t cancelled=%t)", truncated, cancelled)
	}
	return nil
}

// explore runs one in-process exploration under the given layer name.
func (r *rep) explore(layer, agent, test string, models bool) *harness.Result {
	var res *harness.Result
	r.layer(layer, func() {
		res = harness.ExploreContext(context.Background(), mustAgent(agent), mustTest(test), harness.Options{
			WantModels: models, Workers: exploreWorkers, Incremental: true,
		})
	})
	return res
}

// cellOp hashes an explored result and records it as one op against the
// golden key of its (agent, test, models) cell.
func (r *rep) cellOp(agent, test string, models bool, res *harness.Result) {
	key := "cell/" + agent + "/" + test
	if models {
		key = "cell+models/" + agent + "/" + test
	}
	var hash string
	var err error
	r.layer("harness.serialize_s", func() { hash, err = store.ResultHash(res.Serialized()) })
	if err == nil {
		err = partialErr(res.Truncated, res.Cancelled)
	}
	r.op(key, hash, err)
}

func runExplore(r *rep) error {
	test := r.tests[0]
	order := permute(r, agentNames)
	r.ready()

	results := make([]*harness.Result, len(order))
	before := sample()
	r.timed(func() {
		for i, a := range order {
			results[i] = r.explore("harness.explore_s", a, test, true)
		}
	})
	r.counters(before, sample())

	var refConds []*sym.Expr
	var refModels []sym.Assignment
	for i, a := range order {
		res := results[i]
		r.items += int64(len(res.Paths))
		r.addExplore(res)
		r.cellOp(a, test, true, res)
		if a == "ref" {
			for _, p := range res.Paths {
				refConds = append(refConds, p.Cond)
				refModels = append(refModels, p.Model)
			}
		}
		results[i] = nil
	}
	if !r.traced {
		return nil
	}

	// Model extraction's share: the same cells with models off. Their
	// results must equal the campaign's models-off cells.
	var noModels time.Duration
	for _, a := range order {
		start := time.Now()
		res := r.explore("bench.models_off_explore_s", a, test, false)
		noModels += time.Since(start)
		r.cellOp(a, test, false, res)
	}
	r.set("bitblast.models_s", r.get("harness.explore_s")-noModels.Seconds())

	r.probe("ref/"+test, refConds, refModels)
	return nil
}

// probe replays path conditions through a fresh bitblast.New() each,
// timing encoding, solving and canonical model extraction apart. It is a
// fresh-blaster replay, not the engine's incremental sessions, so it splits
// the layers' costs without measuring the engine's own numbers. Every
// condition must be satisfiable and its canonical model must equal the one
// the exploration recorded.
func (r *rep) probe(cell string, conds []*sym.Expr, models []sym.Assignment) {
	var encode, solve, model time.Duration
	var err error
	for i, c := range conds {
		b := bitblast.New()
		t0 := time.Now()
		b.Assert(c)
		t1 := time.Now()
		ok := b.Solve()
		t2 := time.Now()
		m := b.CanonicalModel()
		t3 := time.Now()
		encode += t1.Sub(t0)
		solve += t2.Sub(t1)
		model += t3.Sub(t2)
		if err == nil && !ok {
			err = fmt.Errorf("path %d: condition is unsatisfiable", i)
		}
		if err == nil && assignmentString(m) != assignmentString(models[i]) {
			err = fmt.Errorf("path %d: fresh canonical model %s differs from explored model %s",
				i, assignmentString(m), assignmentString(models[i]))
		}
	}
	r.set("bitblast.probe_encode_s", encode.Seconds())
	r.set("bitblast.probe_solve_s", solve.Seconds())
	r.set("bitblast.probe_model_s", model.Seconds())
	r.op("probe/"+cell, "", err)
}

func assignmentString(m sym.Assignment) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%d", n, m[n])
	}
	return b.String()
}

func runCrosscheck(r *rep) error {
	// Set-up: the vendor hand-off files, explored with models on and
	// serialized to bytes.
	type cell struct {
		agent, test string
		handoff     []byte
		res         *harness.SerializedResult
		groups      *group.Result
	}
	var cells []*cell
	byName := map[string]*cell{}
	for _, t := range r.tests {
		for _, a := range agentNames {
			res := r.explore("bench.setup_explore_s", a, t, true)
			r.cellOp(a, t, true, res)
			var buf bytes.Buffer
			if err := res.Write(&buf); err != nil {
				return fmt.Errorf("serialize %s/%s: %w", a, t, err)
			}
			c := &cell{agent: a, test: t, handoff: buf.Bytes()}
			cells = append(cells, c)
			byName[a+"/"+t] = c
		}
	}
	type pair struct{ test, a, b string }
	var pairs []pair
	for _, t := range r.tests {
		for i := range agentNames {
			for j := i + 1; j < len(agentNames); j++ {
				pairs = append(pairs, pair{t, agentNames[i], agentNames[j]})
			}
		}
	}
	// The pairs keep their canonical order: it decides when the heavy
	// Packet Out checks meet the heap, so permuting it would turn the peak
	// RSS into a function of the seed.
	cells = permute(r, cells)
	r.ready()

	reports := make([]*crosscheck.Report, len(pairs))
	before := sample()
	r.timed(func() {
		for _, c := range cells {
			var err error
			r.layer("harness.read_s", func() { c.res, err = harness.ReadResults(bytes.NewReader(c.handoff)) })
			r.op("", "", err)
		}
		for _, c := range cells {
			if c.res == nil {
				continue
			}
			r.layer("group.paths_s", func() { c.groups = group.Paths(c.res) })
			r.op("", "", nil)
		}
		for k, p := range pairs {
			ga, gb := byName[p.a+"/"+p.test].groups, byName[p.b+"/"+p.test].groups
			if ga == nil || gb == nil {
				continue
			}
			r.layer("crosscheck.run_s", func() {
				reports[k] = crosscheck.RunOpts(context.Background(), ga, gb, crosscheck.Opts{Workers: exploreWorkers})
			})
		}
	})
	r.counters(before, sample())

	for _, c := range cells {
		r.add("harness.results_mb", float64(len(c.handoff))/(1<<20))
		if c.groups != nil {
			r.add("group.paths_in", float64(len(c.res.Paths)))
			r.add("group.groups", float64(len(c.groups.Groups)))
		}
	}
	for k, p := range pairs {
		rep := reports[k]
		key := "check/" + p.test + "/" + p.a + "-" + p.b
		if rep == nil {
			r.op(key, "", fmt.Errorf("not run: a side failed to read"))
			continue
		}
		r.items += int64(rep.Queries)
		r.add("crosscheck.pairs", 1)
		r.add("crosscheck.queries", float64(rep.Queries))
		r.add("crosscheck.inconsistencies", float64(len(rep.Inconsistencies)))
		r.addSolver(rep.SolverStats)
		r.op(key, checkDigest(rep), partialErr(rep.Partial, rep.Cancelled))
	}
	if q := r.get("crosscheck.queries"); q > 0 {
		r.set("crosscheck.witness_ratio", r.get("crosscheck.inconsistencies")/q)
	}
	return nil
}

// checkDigest renders one crosscheck's output: query and inconsistency
// counts and a SHA-256 over the witnesses in report order.
func checkDigest(rep *crosscheck.Report) string {
	h := sha256.New()
	for _, inc := range rep.Inconsistencies {
		fmt.Fprintf(h, "%d %d%s\n", inc.AIndex, inc.BIndex, assignmentString(inc.Witness))
	}
	return fmt.Sprintf("queries=%d inconsistencies=%d witnesses=%s",
		rep.Queries, len(rep.Inconsistencies), hex.EncodeToString(h.Sum(nil)))
}

// matrix runs the timed sched.RunMatrix call of the campaign and fleet
// workloads and checks its cells and its canonical report. wantHits is the
// number of cells the store must serve. Campaign cells run one after
// another, so they take a seed-permuted order; fleet cells run
// concurrently, where the order sets which cell runs alone at the end and
// so the critical path and the peak heap, and they keep the canonical one.
func (r *rep) matrix(o sched.Options, wantHits int) *sched.Report {
	agentOrder, testOrder := agentNames, r.tests
	if o.Fleet == nil {
		agentOrder, testOrder = permute(r, agentNames), permute(r, r.tests)
	}
	o.CodeVersion = codeVersion
	o.Workers = exploreWorkers
	o.Incremental = true
	var rep *sched.Report
	var err error
	before := sample()
	// The matrix call wraps the layer calls of the program's own; it is not
	// layer time itself, and splitMatrix attributes it from the spans inside.
	sp := obs.StartSpan("bench:sched.matrix_s")
	r.timed(func() {
		rep, err = sched.RunMatrix(context.Background(), agentOrder, testOrder, o)
	})
	sp.End()
	r.set("sched.matrix_s", r.wall)
	r.counters(before, sample())
	if err != nil {
		r.op("matrix", "", err)
		return nil
	}
	r.matrixOps(rep)
	if rep.CacheHits != wantHits {
		r.op("", "", fmt.Errorf("store served %d cells, want %d", rep.CacheHits, wantHits))
	}
	for _, c := range rep.Cells {
		if !c.CacheHit {
			r.add("harness.paths", float64(c.Paths))
		}
	}
	r.add("symexec.branch_queries", float64(rep.BranchQueries))
	r.addSolver(rep.SolverStats)
	return rep
}

// matrixOps checks every cell of a campaign report against its models-off
// golden, and the report's canonical bytes (re-ordered to the workload's
// canonical agent and test order, so every seed renders the same bytes).
func (r *rep) matrixOps(rep *sched.Report) {
	canon := &sched.Report{Agents: agentNames, Tests: r.tests}
	for _, a := range agentNames {
		for _, t := range r.tests {
			c := rep.CellAt(a, t)
			if c == nil {
				r.op("cell/"+a+"/"+t, "", fmt.Errorf("cell missing from report"))
				continue
			}
			r.op("cell/"+a+"/"+t, c.ResultHash, partialErr(c.Truncated, false))
			canon.Cells = append(canon.Cells, *c)
		}
	}
	h := sha256.New()
	err := canon.Write(h)
	r.op("report/"+strings.Join(r.tests, ","), hex.EncodeToString(h.Sum(nil)), err)
}

// storeProbe times direct PutResult, GetResult and ResultHash calls on the
// campaign's cells against a scratch store.
func (r *rep) storeProbe(rep *sched.Report) error {
	dir, err := os.MkdirTemp(r.tmp, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	for _, c := range rep.Cells {
		key := store.Key{Agent: c.Agent, Test: c.Test, CodeVersion: codeVersion + "-probe"}
		var got *harness.SerializedResult
		var hash string
		r.layer("store.put_s", func() { err = st.PutResult(key, c.Result) })
		if err == nil {
			r.layer("store.get_s", func() { got, _, err = st.GetResult(key) })
		}
		if err == nil && got == nil {
			err = fmt.Errorf("store probe: %s/%s missing after put", c.Agent, c.Test)
		}
		if err == nil {
			r.layer("store.hash_s", func() { hash, err = store.ResultHash(got) })
		}
		if err == nil && hash != c.ResultHash {
			err = fmt.Errorf("store probe: %s/%s read back with hash %s, want %s", c.Agent, c.Test, hash, c.ResultHash)
		}
		r.op("", "", err)
	}
	return nil
}

func runCampaignCold(r *rep) error {
	dir, err := os.MkdirTemp(r.tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	r.ready()
	rep := r.matrix(sched.Options{Store: st}, 0)
	if rep == nil {
		return nil
	}
	r.items = int64(len(rep.Cells))
	if r.traced {
		return r.storeProbe(rep)
	}
	return nil
}

// runCampaignWarm reads the store the run's fill filled. With role fill it
// is that fill: the cold campaign into the run's store.
func runCampaignWarm(r *rep) error {
	st, err := store.Open(r.store)
	if err != nil {
		return err
	}
	r.ready()
	if r.role == roleFill {
		r.matrix(sched.Options{Store: st}, 0)
		return nil
	}
	rep := r.matrix(sched.Options{Store: st}, len(agentNames)*len(r.tests))
	if rep == nil {
		return nil
	}
	r.items = int64(len(rep.Cells))
	if r.traced {
		return r.storeProbe(rep)
	}
	return nil
}

func runFleet(r *rep) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fleet := dist.NewFleet(ln, dist.FleetConfig{})
	defer fleet.Close()
	ws, err := startWorkers(ln.Addr().String(), r.fleetWorkers)
	defer ws.kill()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for fleet.Stats().WorkersJoined < r.fleetWorkers {
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d of %d workers joined within 30s", fleet.Stats().WorkersJoined, r.fleetWorkers)
		}
		time.Sleep(2 * time.Millisecond)
	}
	r.ready()

	rtt := dist.LeaseRTTSnapshot()
	rep := r.matrix(sched.Options{Fleet: fleet, ShardDepth: 4}, 0)
	rtt = dist.LeaseRTTSnapshot().Sub(rtt)
	fleet.Close()
	r.workerRSSKB = ws.wait(10 * time.Second)
	if rep == nil {
		return nil
	}
	for _, c := range rep.Cells {
		r.items += int64(c.Paths)
	}
	st := fleet.Stats()
	r.set("dist.leases", float64(st.Leases))
	r.set("dist.batched_leases", float64(st.BatchedLeases))
	r.set("dist.shards", float64(st.ShardsLeased))
	r.set("dist.requeues", float64(st.Requeues))
	r.set("dist.expirations", float64(st.Expirations))
	r.set("dist.stale_results", float64(st.StaleResults))
	r.set("dist.lease_rtt_p50_ms_le", float64(rtt.Quantile(0.5))/1e6)
	r.set("dist.lease_rtt_p99_ms_le", float64(rtt.Quantile(0.99))/1e6)
	if !r.traced {
		return nil
	}

	// The same cells fleetless, in process: the dist layer's overhead.
	var inproc *sched.Report
	start := time.Now()
	r.layer("bench.inproc_matrix_s", func() {
		inproc, err = sched.RunMatrix(context.Background(), agentNames, r.tests, sched.Options{
			CodeVersion: codeVersion, Workers: exploreWorkers, Incremental: true,
		})
	})
	elapsed := time.Since(start).Seconds()
	if err != nil {
		r.op("matrix-inproc", "", err)
		return nil
	}
	r.matrixOps(inproc)
	r.set("dist.inproc_paths_per_s", float64(r.items)/elapsed)
	r.set("dist.overhead_ratio", r.wall/elapsed)
	return nil
}
