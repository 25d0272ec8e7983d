package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	_ "github.com/soft-testing/soft/internal/agents/modified"  // register "modified"
	_ "github.com/soft-testing/soft/internal/agents/ovs"       // register "ovs"
	_ "github.com/soft-testing/soft/internal/agents/refswitch" // register "ref"
	"github.com/soft-testing/soft/internal/obs"
	_ "github.com/soft-testing/soft/internal/scenario" // register the scenario test source
	"github.com/soft-testing/soft/internal/sched"
	"github.com/soft-testing/soft/internal/store"
)

// smallSpec is the cheapest real job: one agent, one test, no crosscheck.
func smallSpec() JobSpec {
	return JobSpec{
		Agents:      []string{"ref"},
		Tests:       []string{"Packet Out"},
		Models:      true,
		CodeVersion: "test-v1",
	}
}

func newTestServer(t *testing.T, dir string) *Server {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, CodeVersion: "test-v1", Workers: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// referenceBytes runs the same campaign directly through sched and returns
// its canonical report — the oracle every service-produced report must
// match byte for byte.
func referenceBytes(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	rep, err := sched.RunMatrix(context.Background(), spec.Agents, spec.Tests, sched.Options{
		MaxPaths:   spec.MaxPaths,
		MaxDepth:   spec.MaxDepth,
		Models:     spec.Models,
		CrossCheck: spec.CrossCheck,
		Workers:    4,
	})
	if err != nil {
		t.Fatalf("reference RunMatrix: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServiceSubmitRunFetch drives the full HTTP surface end to end
// in-process: submit over the API, stream progress, fetch the report, and
// demand byte-identity with a direct fleetless run of the same campaign.
func TestServiceSubmitRunFetch(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); s.Close() }()
	s.Start(ctx)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)

	spec := JobSpec{
		Agents:      []string{"ref", "modified"},
		Tests:       []string{"Packet Out"},
		Models:      true,
		CrossCheck:  true,
		CodeVersion: "test-v1",
	}
	j, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.ID == "" || j.State != StateQueued {
		t.Fatalf("submitted job = %+v, want queued with an id", j)
	}

	var events []Event
	final, err := cl.Watch(ctx, j.ID, func(ev Event) { events = append(events, ev) })
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("final state = %s (error %q), want done", final.State, final.Error)
	}
	if len(events) == 0 || !events[len(events)-1].State.terminal() {
		t.Fatalf("event stream %v must end with a terminal event", events)
	}
	if final.Inconsistencies == 0 {
		t.Fatalf("ref vs modified on Packet Out must report inconsistencies")
	}

	got, err := cl.Report(ctx, j.ID)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if want := referenceBytes(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("service report differs from direct run (%d vs %d bytes)", len(got), len(want))
	}

	jobs, err := cl.Jobs(ctx)
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(jobs) != 1 || jobs[0].ID != j.ID {
		t.Fatalf("Jobs = %+v, want the one submitted job", jobs)
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Done != 1 || st.CodeVersion != "test-v1" {
		t.Fatalf("Status = %+v, want 1 done at code version test-v1", st)
	}
}

// TestJournalReplayResumesRunningJobs is the durability core: a job left
// in the running state by a dead coordinator is requeued on open, runs to
// completion, and its report matches an uninterrupted run byte for byte.
func TestJournalReplayResumesRunningJobs(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Forge the journal a SIGKILLed coordinator would leave behind: a job
	// journaled as running with no report.
	jr, err := openJournal(st.Dir() + "/campaignd")
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{
		Agents:      []string{"ref", "modified"},
		Tests:       []string{"Packet Out"},
		Models:      true,
		CrossCheck:  true,
		CodeVersion: "test-v1",
	}
	dead := &Job{ID: jobID(7), Seq: 7, Spec: spec, State: StateRunning, StartSeq: 3, SubmittedUnix: 1}
	if err := jr.putJob(dead); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Store: st, CodeVersion: "test-v1", Workers: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j, ok := s.Job(jobID(7))
	if !ok {
		t.Fatalf("replay lost job %s", jobID(7))
	}
	if j.State != StateQueued || j.Restarts != 1 {
		t.Fatalf("replayed job state=%s restarts=%d, want queued with 1 restart", j.State, j.Restarts)
	}
	// The requeue must itself be durable before any scheduling happens.
	onDisk, err := jr.jobs()
	if err != nil || len(onDisk) != 1 {
		t.Fatalf("journal after replay: %v, %d entries", err, len(onDisk))
	}
	if onDisk[0].State != StateQueued || onDisk[0].Restarts != 1 {
		t.Fatalf("journaled replay = %+v, want queued/restarts=1", onDisk[0])
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); s.Close() }()
	s.Start(ctx)
	waitState(t, s, jobID(7), StateDone)
	got, ok, err := s.Report(jobID(7))
	if err != nil || !ok {
		t.Fatalf("Report: ok=%t err=%v", ok, err)
	}
	if want := referenceBytes(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from uninterrupted run")
	}
	if s.nextSeq <= 7 {
		t.Fatalf("nextSeq = %d, must advance past replayed seq 7", s.nextSeq)
	}
}

// TestJournalUpgradeDropsClauseSharing pins the upgrade path for removed
// JobSpec fields: a journal record an older daemon wrote with
// "clause_sharing": true or with "tenant": "alice" must replay and finish
// with the same report bytes as a record without it, while a new
// submission that still carries either field is refused with a 400 naming
// it.
func TestJournalUpgradeDropsClauseSharing(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := openJournal(st.Dir() + "/campaignd")
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{
		Agents:      []string{"ref", "modified"},
		Tests:       []string{"Packet Out"},
		Models:      true,
		CrossCheck:  true,
		CodeVersion: "test-v1",
	}
	// Record 1 carries clause_sharing, record 2 a tenant, record 3 neither.
	oldFields := map[uint64]string{1: `"clause_sharing":true`, 2: `"tenant":"alice"`}
	for seq := uint64(1); seq <= 3; seq++ {
		data, err := json.Marshal(&Job{ID: jobID(seq), Seq: seq, Spec: spec, State: StateRunning, SubmittedUnix: 1})
		if err != nil {
			t.Fatal(err)
		}
		if old, ok := oldFields[seq]; ok {
			data = bytes.Replace(data, []byte(`"spec":{`), []byte(`"spec":{`+old+`,`), 1)
			if !bytes.Contains(data, []byte(old)) {
				t.Fatalf("forged record lacks the old field: %s", data)
			}
		}
		if err := jr.writeAtomic(jr.jobPath(jobID(seq)), data); err != nil {
			t.Fatal(err)
		}
	}

	s, err := New(Config{Store: st, CodeVersion: "test-v1", Workers: 4})
	if err != nil {
		t.Fatalf("New over an old journal: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); s.Close() }()
	s.Start(ctx)
	reports := make([][]byte, 3)
	for i := range reports {
		id := jobID(uint64(i + 1))
		waitState(t, s, id, StateDone)
		got, ok, err := s.Report(id)
		if err != nil || !ok {
			t.Fatalf("Report(%s): ok=%t err=%v", id, ok, err)
		}
		reports[i] = got
	}
	for i, name := range []string{"clause_sharing", "tenant"} {
		if !bytes.Equal(reports[i], reports[2]) {
			t.Fatalf("the record with %s produced a different report", name)
		}
	}
	if want := referenceBytes(t, spec); !bytes.Equal(reports[0], want) {
		t.Fatal("replayed report differs from an uninterrupted run")
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, field := range []string{`"clause_sharing":true`, `"tenant":"alice"`} {
		body := `{"agents":["ref"],"tests":["Packet Out"],"models":true,` + field + `}`
		resp, err := http.Post(ts.URL+apiPrefix+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		name := strings.Split(field, `"`)[1]
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), name) {
			t.Fatalf("submit with %s: HTTP %d %s, want a 400 naming the field", name, resp.StatusCode, msg)
		}
	}
}

// TestFIFODispatch checks the observable dispatch order with one slot:
// jobs start in submission order, and a job that a shutdown interrupted
// goes back to the head of the queue, ahead of work submitted before the
// restart.
func TestFIFODispatch(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, CodeVersion: "test-v1", Workers: 4, MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The first job explores FlowMod on two agents, so it is still running
	// when the shutdown lands; the other two wait behind it.
	slow := smallSpec()
	slow.Agents = []string{"ref", "ovs"}
	slow.Tests = []string{"FlowMod"}
	slow.Models = false
	var ids []string
	for _, spec := range []JobSpec{slow, smallSpec(), smallSpec()} {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, j.ID)
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	s.Start(ctx1)
	waitState(t, s, ids[0], StateRunning)
	cancel1()
	deadline := time.Now().Add(60 * time.Second)
	for s.Status().Running != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the interrupted job never settled: %+v", s.Status())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if j, _ := s.Job(ids[0]); j.State != StateQueued || j.StartSeq != 1 {
		t.Fatalf("interrupted job = %s at StartSeq %d, want queued after dispatch 1", j.State, j.StartSeq)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	s.Start(ctx2)
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}
	// Dispatch 1 was the interrupted run; the requeued job restarts
	// first, then the other two in submission order.
	for i, id := range ids {
		if j, _ := s.Job(id); j.StartSeq != uint64(i+2) {
			t.Errorf("job %s StartSeq = %d, want %d", id, j.StartSeq, i+2)
		}
	}
}

// TestSubmitValidation covers the API's refusal paths.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := context.Background()

	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"unknown agent", JobSpec{Agents: []string{"nope"}, Tests: []string{"Packet Out"}}, "nope"},
		{"unknown test", JobSpec{Agents: []string{"ref"}, Tests: []string{"No Such Test"}}, "No Such Test"},
		{"dup agent", JobSpec{Agents: []string{"ref", "ref"}, Tests: []string{"Packet Out"}}, "duplicate"},
		{"negative max_paths", JobSpec{Agents: []string{"ref"}, Tests: []string{"Concrete"}, MaxPaths: -1}, "max_paths"},
		{"negative max_depth", JobSpec{Agents: []string{"ref"}, Tests: []string{"Concrete"}, MaxDepth: -1}, "max_depth"},
	}
	for _, tc := range cases {
		if _, err := cl.Submit(ctx, tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// Empty agents/tests expand to the full registry at submission time.
	j, err := cl.Submit(ctx, JobSpec{})
	if err != nil {
		t.Fatalf("Submit(empty): %v", err)
	}
	if len(j.Spec.Agents) < 2 || len(j.Spec.Tests) < 2 {
		t.Fatalf("empty spec expanded to %d agents × %d tests, want the full registry", len(j.Spec.Agents), len(j.Spec.Tests))
	}

	if _, err := cl.Job(ctx, "j999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("Job(unknown) = %v, want a 404", err)
	}
	if _, err := cl.Job(ctx, "not-an-id"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("Job(malformed) = %v, want a 404", err)
	}
	// A queued job has no report yet: conflict, not not-found.
	if _, err := cl.Report(ctx, j.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("Report(queued) = %v, want a 409", err)
	}
	resp, err := http.Get(ts.URL + apiPrefix + "/jobs/" + j.ID + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown sub-endpoint: HTTP %d, want 404", resp.StatusCode)
	}
}

func waitState(t *testing.T, s *Server, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.State == want {
			return
		}
		if j.State.terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestCancelQueuedJob cancels a job before any scheduler runs: the job
// must leave the queue, journal as terminal cancelled, refuse a second
// cancel, and stay cancelled across a coordinator restart.
func TestCancelQueuedJob(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir) // never started: jobs stay queued
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := context.Background()

	first, err := cl.Submit(ctx, smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Submit(ctx, smallSpec())
	if err != nil {
		t.Fatal(err)
	}

	got, err := cl.Cancel(ctx, first.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if got.State != StateCancelled || got.FinishedUnix == 0 {
		t.Fatalf("cancelled job = %+v, want terminal cancelled", got)
	}
	if _, err := cl.Cancel(ctx, first.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("second Cancel = %v, want a 409", err)
	}
	if _, err := cl.Cancel(ctx, "j999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("Cancel(unknown) = %v, want a 404", err)
	}
	st, err := cl.Status(ctx)
	if err != nil || st.Cancelled != 1 || st.Queued != 1 {
		t.Fatalf("Status = %+v (err %v), want 1 cancelled + 1 queued", st, err)
	}

	// A restarted coordinator must replay the cancellation as terminal —
	// never requeue it — while the untouched job keeps its place.
	s.Close()
	ts.Close()
	s2 := newTestServer(t, dir)
	defer s2.Close()
	if j, ok := s2.Job(first.ID); !ok || j.State != StateCancelled {
		t.Fatalf("after restart, job %s = %+v, want cancelled", first.ID, j)
	}
	if j, ok := s2.Job(second.ID); !ok || j.State != StateQueued {
		t.Fatalf("after restart, job %s = %+v, want queued", second.ID, j)
	}
}

// TestCancelRunningJob cancels mid-execution: the running matrix must
// abort (not run to completion), the job must settle as cancelled rather
// than requeued or failed, and the scheduler slot must free up for the
// next job.
func TestCancelRunningJob(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); s.Close() }()
	s.Start(ctx)

	// An expensive matrix so the job is reliably still running when the
	// cancel lands; cancellation must cut it short long before the
	// 120-second waitState ceiling.
	slow := JobSpec{
		Agents:      []string{"ref", "ovs"},
		Tests:       []string{"FlowMod", "Eth FlowMod"},
		Models:      true,
		CrossCheck:  true,
		CodeVersion: "test-v1",
	}
	j, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateRunning)
	rec, err := s.Cancel(j.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if rec.State != StateCancelled {
		t.Fatalf("Cancel returned state %s, want cancelled", rec.State)
	}

	// The execute goroutine unwinds: running drops to zero and the state
	// stays cancelled (no requeue, no failure).
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := s.Status()
		if st.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("running count never drained after cancel: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got, _ := s.Job(j.ID); got.State != StateCancelled {
		t.Fatalf("job settled as %s, want cancelled", got.State)
	}

	// The freed slot must schedule new work.
	next, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, next.ID, StateDone)
}

// TestRetentionPrunesTerminalJobs bounds the journal with Retain=2: of
// four terminal jobs only the newest two survive — in memory, in the
// journal directory, and across a restart — while live jobs are immune.
func TestRetentionPrunesTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, CodeVersion: "test-v1", Workers: 4, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var ids []string
	for i := 0; i < 5; i++ {
		j, err := s.Submit(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	// Cancellation is the cheapest terminal transition: retire the first
	// four jobs oldest-first, leaving the fifth queued.
	for _, id := range ids[:4] {
		if _, err := s.Cancel(id); err != nil {
			t.Fatalf("Cancel(%s): %v", id, err)
		}
	}

	jobs := s.Jobs()
	var kept []string
	for _, j := range jobs {
		kept = append(kept, j.ID)
	}
	want := []string{ids[2], ids[3], ids[4]}
	if len(kept) != len(want) || kept[0] != want[0] || kept[1] != want[1] || kept[2] != want[2] {
		t.Fatalf("after pruning, jobs = %v, want %v", kept, want)
	}
	if j, _ := s.Job(ids[4]); j.State != StateQueued {
		t.Fatalf("live job was disturbed by retention: %+v", j)
	}

	// The journal on disk must agree (pruned records deleted durably).
	jr, err := openJournal(st.Dir() + "/campaignd")
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := jr.jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != 3 {
		t.Fatalf("journal holds %d records after pruning, want 3", len(onDisk))
	}

	// Startup pruning: reopen with a tighter bound and the replayed
	// backlog shrinks again.
	s.Close()
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Store: st2, CodeVersion: "test-v1", Workers: 4, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if jobs := s2.Jobs(); len(jobs) != 2 || jobs[0].ID != ids[3] || jobs[1].ID != ids[4] {
		got := make([]string, 0, len(jobs))
		for _, j := range jobs {
			got = append(got, j.ID)
		}
		t.Fatalf("after tighter restart, jobs = %v, want [%s %s]", got, ids[3], ids[4])
	}
}

// TestSubmitAcceptsScenarioNames checks the campaign service resolves
// scenario-backed tests through the shared test registry: a scenario job
// validates, runs, and reports like any Table 1 job.
func TestSubmitAcceptsScenarioNames(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); s.Close() }()
	s.Start(ctx)
	spec := JobSpec{
		Agents:      []string{"ref", "ovs"},
		Tests:       []string{"Add Modify"},
		Models:      true,
		CrossCheck:  true,
		CodeVersion: "test-v1",
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit(scenario): %v", err)
	}
	waitState(t, s, j.ID, StateDone)
	final, _ := s.Job(j.ID)
	if final.Inconsistencies < 1 {
		t.Fatalf("scenario job found %d inconsistencies, want at least 1 (the stateful nw_tos divergence)", final.Inconsistencies)
	}
	if want := referenceBytes(t, spec); true {
		got, ok, err := s.Report(j.ID)
		if err != nil || !ok {
			t.Fatalf("Report: ok=%t err=%v", ok, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("scenario job report differs from a direct sched run")
		}
	}
}

// TestTracedJobBundleDownload drives the traced-job lifecycle over the
// HTTP surface: submitting with trace=true mints a canonical trace id,
// the finished job's segment bundle downloads via the client and carries
// the daemon's job span, the default format is Chrome trace JSON, and
// the trace endpoint 404s/409s correctly for unknown and untraced jobs.
// The traced report must also stay byte-identical to an untraced one —
// tracing is observation-only at the service layer too.
func TestTracedJobBundleDownload(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); s.Close() }()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)

	// The untraced sibling is both the 409 subject and the byte-identity
	// oracle for the traced run.
	plain, err := cl.Submit(ctx, smallSpec())
	if err != nil {
		t.Fatalf("Submit(untraced): %v", err)
	}
	spec := smallSpec()
	spec.Trace = true
	j, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit(traced): %v", err)
	}
	if !j.Spec.Trace || j.Spec.TraceID == "" {
		t.Fatalf("traced submit did not mint a trace id: %+v", j.Spec)
	}
	if _, err := obs.ParseTraceID(j.Spec.TraceID); err != nil {
		t.Fatalf("minted trace id %q is not canonical: %v", j.Spec.TraceID, err)
	}
	waitState(t, s, plain.ID, StateDone)
	waitState(t, s, j.ID, StateDone)

	tracedRep, err := cl.Report(ctx, j.ID)
	if err != nil {
		t.Fatalf("Report(traced): %v", err)
	}
	plainRep, err := cl.Report(ctx, plain.ID)
	if err != nil {
		t.Fatalf("Report(untraced): %v", err)
	}
	if !bytes.Equal(tracedRep, plainRep) {
		t.Fatal("traced job report differs from untraced sibling: instrumentation leaked into the answer path")
	}

	// The client downloads the raw segment bundle; the job span the
	// daemon wrapped around execution must be in it.
	b, err := cl.Trace(ctx, j.ID)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if len(b.Segments) == 0 {
		t.Fatal("trace bundle has no segments")
	}
	var sawJobSpan bool
	for _, seg := range b.Segments {
		for _, ev := range seg.Events {
			if ev.Name == "job:"+j.ID {
				sawJobSpan = true
			}
		}
	}
	if !sawJobSpan {
		t.Fatalf("bundle misses the job:%s span: %+v", j.ID, b.Segments)
	}

	// Default (no ?format) is merged Chrome trace JSON, ready for
	// Perfetto.
	resp, err := http.Get(ts.URL + apiPrefix + "/jobs/" + j.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace Content-Type = %q, want application/json", ct)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tf); err != nil {
		t.Fatalf("default trace format is not Chrome JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("Chrome trace carries no events")
	}

	// Error surface: untraced job conflicts, unknown job 404s.
	if _, err := cl.Trace(ctx, plain.ID); err == nil || !strings.Contains(err.Error(), "not traced") {
		t.Errorf("Trace(untraced) = %v, want a was-not-traced conflict", err)
	}
	if _, err := cl.Trace(ctx, "nope"); err == nil || !strings.Contains(err.Error(), "no such job") {
		t.Errorf("Trace(unknown) = %v, want no-such-job", err)
	}
}

// TestSubmitTraceparentHeader pins cross-process propagation into the
// daemon: a traceparent-style header on submit adopts the caller's trace
// identity without the body asking for tracing, and a malformed header
// is rejected rather than silently dropped.
func TestSubmitTraceparentHeader(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); s.Close() }()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const callerID = uint64(0xabcdef1234567890)
	body, err := json.Marshal(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+apiPrefix+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Soft-Traceparent", obs.FormatTraceparent(callerID))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with traceparent: HTTP %d", resp.StatusCode)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	if !j.Spec.Trace || j.Spec.TraceID != obs.FormatTraceID(callerID) {
		t.Fatalf("header did not adopt caller trace context: trace=%t id=%q, want id %q",
			j.Spec.Trace, j.Spec.TraceID, obs.FormatTraceID(callerID))
	}
	waitState(t, s, j.ID, StateDone)
	b, err := NewClient(ts.URL).Trace(ctx, j.ID)
	if err != nil {
		t.Fatalf("Trace after header-propagated submit: %v", err)
	}
	if len(b.Segments) == 0 {
		t.Fatal("header-traced job drained no segments")
	}

	// Malformed header: reject loudly.
	req2, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+apiPrefix+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Soft-Traceparent", "00-zznothexzz-0000000000000000-01")
	resp2, err := ts.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed traceparent: HTTP %d, want 400", resp2.StatusCode)
	}
}
