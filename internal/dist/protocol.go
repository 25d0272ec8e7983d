// Package dist implements distributed exploration: a coordinator process
// that splits the phase-1 frontier into decision-prefix subtrees and a
// fleet of worker processes that explore them, talking over a small
// length-prefixed TCP protocol.
//
// The design mirrors the paper's Cloud9-on-a-cluster deployment (§3.2) but
// leans on the reproduction's determinism guarantees instead of shared
// engine state: a shard is nothing but a branch-decision prefix, exploring
// a shard is a pure function (the worker re-executes the deterministic
// agent under that prefix), and the coordinator merges shard outputs with
// the same canonical decision-prefix order the in-process engine uses — so
// the distributed result is byte-identical to a single-process run, a
// worker crash costs only a re-lease, and a shard accidentally explored
// twice returns identical bytes both times.
//
// # Wire protocol
//
// Every message is one frame:
//
//	[4-byte big-endian length] [1-byte message type] [payload]
//
// where length covers the type byte plus the payload and is capped at 64
// MiB. Payload scalars are varints; strings and byte slices are
// length-prefixed; decision prefixes are bit-packed; expressions travel in
// the same canonical s-expression text the results-file format uses; and
// coverage travels as raw bitmaps (agents register their coverage universe
// deterministically, so indices agree across processes).
//
// The conversation is worker-driven pull. Since protocol version 2 every
// work-carrying frame is job-scoped, so one worker fleet drains an entire
// campaign — a whole (agent × test) matrix — without reconnecting between
// cells:
//
//	worker → hello       {version, name}
//	coord  → welcome     {}                  (or reject {wanted version})
//	coord  → job         {job id, agent, test, engine options}   (per job,
//	                      sent lazily before that job's first lease)
//	coord  → lease       {job id, lease id, decision prefix}     (repeated;
//	                      one shard per lease)
//	worker → progress    {job id, lease id, solver-metric deltas} (throttled)
//	worker → trace       {job id, lease id, span segment}        (traced leases
//	                      only; sent just before the result frame)
//	worker → result      {job id, lease id, shard payload}
//	coord  → shutdown    {}                  (fleet shutting down)
//
// A worker that disconnects mid-lease loses nothing: the coordinator
// returns the leased shard to the pending queue and another worker
// re-explores them (lease expiry does the same for hung workers).
// Duplicate results for a shard are dropped on arrival — first completion
// wins, and determinism makes the copies identical anyway.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"github.com/soft-testing/soft/internal/coverage"
	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/obs"
	"github.com/soft-testing/soft/internal/solver"
	"github.com/soft-testing/soft/internal/sym"
)

// protocolVersion is bumped on any incompatible frame or payload change;
// the coordinator rejects workers speaking a different version (with a
// reject frame naming the version it wants, so the worker can report the
// mismatch instead of a raw decode error). Version 2 added job-scoped
// frames (job/lease/progress/result carry a job id), multi-prefix leases,
// and the reject frame. Version 4 extended progress frames with
// worker-local metric deltas (SAT solves, solve time, assumption solves,
// constraint reuses) so the coordinator can aggregate fleet-wide solver
// throughput live. Version 5 added distributed trace context: job and
// lease frames carry a trace id (and the lease its coordinator-side
// parent span id), and traced workers ship their buffered span segments
// back on the new trace frame so the coordinator can merge one
// cross-process timeline. Version 6 dropped the clause-sharing and merge
// flags from job frames and the clause-exchange and merge-hit counters
// from solver statistics. Version 7 dropped the incremental and
// canonical-cut flags from job frames (workers always explore on sessions
// with the canonical cut), the path count from progress frames, and the
// full-solve counter from solver statistics. Version 8 writes a result
// payload's expressions as one sharing stream: each distinct subterm once,
// "#n" references after that (see sym.Printer). Version 9 leases one shard
// at a time: the lease frame carries one prefix and the result frame drops
// the prefix index.
const protocolVersion = 9

// maxFrame bounds a frame (type byte + payload). It matches the results
// reader's line buffer: anything bigger is a corrupt or hostile peer.
const maxFrame = 64 << 20

// msgType tags a frame.
type msgType byte

const (
	msgHello    msgType = 1 // worker → coordinator: version handshake
	msgWelcome  msgType = 2 // coordinator → worker: handshake accepted
	msgLease    msgType = 3 // coordinator → worker: one shard to explore
	msgProgress msgType = 4 // worker → coordinator: solver-metric deltas
	msgResult   msgType = 5 // worker → coordinator: the completed shard payload
	msgShutdown msgType = 6 // coordinator → worker: fleet done, disconnect
	msgReject   msgType = 7 // coordinator → worker: protocol version mismatch
	msgJob      msgType = 8 // coordinator → worker: one job's configuration
	msgTrace    msgType = 9 // worker → coordinator: buffered span segment (v5)
)

// writeFrame sends one frame. Callers serialize writes per connection.
func writeFrame(w io.Writer, t msgType, payload []byte) error {
	if len(payload)+1 > maxFrame {
		return fmt.Errorf("dist: frame too large (%d bytes)", len(payload)+1)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame receives one frame.
func readFrame(r io.Reader) (msgType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return 0, nil, fmt.Errorf("dist: bad frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("dist: truncated frame: %w", err)
	}
	return msgType(body[0]), body[1:], nil
}

// enc builds a payload. All scalars are varints (signed where the field is
// signed), so payloads stay small and independent of word size.
type enc struct {
	b []byte
	// pr writes a payload's expressions as one sharing stream, each
	// distinct subterm once; tmp holds one rendering until its length
	// prefix is known.
	pr  *sym.Printer
	tmp []byte
}

func (e *enc) u64(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i64(v int64)  { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) boolean(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}
func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) bytes(p []byte) {
	e.u64(uint64(len(p)))
	e.b = append(e.b, p...)
}

// bits packs a decision vector: bit count, then ceil(n/8) bytes, LSB first.
func (e *enc) bits(d []bool) {
	e.u64(uint64(len(d)))
	packed := make([]byte, (len(d)+7)/8)
	for i, v := range d {
		if v {
			packed[i/8] |= 1 << (i % 8)
		}
	}
	e.b = append(e.b, packed...)
}

// dec consumes a payload, latching the first error so callers can decode a
// whole message and check once.
type dec struct {
	b   []byte
	err error
	// rd reads a payload's expressions back as the one stream pr wrote.
	rd sym.Reader
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("dist: "+format, args...)
	}
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) boolean() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) == 0 {
		d.fail("truncated bool")
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	if v > 1 {
		d.fail("bad bool byte %d", v)
		return false
	}
	return v == 1
}

// count reads a collection length, rejecting values the remaining payload
// cannot possibly hold (each element takes at least min bytes).
func (d *dec) count(what string, min int) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(math.MaxInt32) || int(n)*min > len(d.b) {
		d.fail("implausible %s count %d for %d remaining bytes", what, n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *dec) str() string {
	n := d.count("string byte", 1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) bytes() []byte {
	n := d.count("byte", 1)
	if d.err != nil {
		return nil
	}
	p := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return p
}

func (d *dec) bits() []bool {
	n := d.count("bit", 0)
	if d.err != nil {
		return nil
	}
	packed := (n + 7) / 8
	if packed > len(d.b) {
		d.fail("truncated bit vector (%d bits, %d bytes left)", n, len(d.b))
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.b[i/8]&(1<<(i%8)) != 0
	}
	d.b = d.b[packed:]
	return out
}

// done checks a fully decoded message: no latched error, no trailing bytes.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("dist: %d trailing bytes after message", len(d.b))
	}
	return nil
}

// hello is the worker's opening message.
type hello struct {
	version uint64
	name    string
}

func encodeHello(h hello) []byte {
	var e enc
	e.u64(h.version)
	e.str(h.name)
	return e.b
}

func decodeHello(p []byte) (hello, error) {
	d := dec{b: p}
	h := hello{version: d.u64(), name: d.str()}
	return h, d.done()
}

// reject tells a worker its protocol version was refused and which version
// the coordinator speaks, so the worker can report the mismatch precisely.
type reject struct {
	want uint64
}

func encodeReject(r reject) []byte {
	var e enc
	e.u64(r.want)
	return e.b
}

func decodeReject(p []byte) (reject, error) {
	d := dec{b: p}
	r := reject{want: d.u64()}
	return r, d.done()
}

// jobMsg announces one job — an (agent, test) cell plus the engine options
// every shard of that job must share for the merged result to be canonical.
// It is sent at most once per connection per job, before the job's first
// lease on that connection.
type jobMsg struct {
	id                 uint64
	agent, test        string
	maxPaths, maxDepth int
	models             bool

	// traced marks the job as span-traced at submission; traceID is the
	// campaign's correlation id, threaded through worker log lines. Both
	// are pure observability (v5): they never reach the engine.
	traced  bool
	traceID uint64
}

func encodeJob(j jobMsg) []byte {
	var e enc
	e.u64(j.id)
	e.str(j.agent)
	e.str(j.test)
	e.i64(int64(j.maxPaths))
	e.i64(int64(j.maxDepth))
	e.boolean(j.models)
	e.boolean(j.traced)
	e.u64(j.traceID)
	return e.b
}

func decodeJob(p []byte) (jobMsg, error) {
	d := dec{b: p}
	j := jobMsg{
		id:       d.u64(),
		agent:    d.str(),
		test:     d.str(),
		maxPaths: int(d.i64()),
		maxDepth: int(d.i64()),
	}
	j.models = d.boolean()
	j.traced = d.boolean()
	j.traceID = d.u64()
	return j, d.done()
}

// lease hands one shard — the subtree below the given decision prefix —
// of a job to a worker.
type lease struct {
	job    uint64
	id     uint64
	prefix []bool

	// Trace context (v5): traced asks the worker to buffer and ship its
	// spans for this lease; parentSpan is the coordinator-side lease
	// span's id, under which the worker's shipped segment nests in the
	// merged timeline; traceID is the campaign correlation id.
	traced     bool
	traceID    uint64
	parentSpan uint64
}

func encodeLease(l lease) []byte {
	var e enc
	e.u64(l.job)
	e.u64(l.id)
	e.boolean(l.traced)
	e.u64(l.traceID)
	e.u64(l.parentSpan)
	e.bits(l.prefix)
	return e.b
}

func decodeLease(p []byte) (lease, error) {
	d := dec{b: p}
	l := lease{job: d.u64(), id: d.u64()}
	l.traced = d.boolean()
	l.traceID = d.u64()
	l.parentSpan = d.u64()
	l.prefix = d.bits()
	return l, d.done()
}

// progressMsg streams, while a lease runs, the worker's metric deltas since
// its previous progress frame (v4): SAT solves, solve nanoseconds,
// assumption solves, and activation-cache constraint reuses. The deltas are
// advisory observability data — the coordinator aggregates them fleet-wide
// and nothing else reads them, so they can never affect a merged result.
type progressMsg struct {
	job   uint64
	lease uint64

	dSolves     uint64
	dSolveNanos uint64
	dAssumption uint64
	dReused     uint64
}

func encodeProgress(p progressMsg) []byte {
	var e enc
	e.u64(p.job)
	e.u64(p.lease)
	e.u64(p.dSolves)
	e.u64(p.dSolveNanos)
	e.u64(p.dAssumption)
	e.u64(p.dReused)
	return e.b
}

func decodeProgress(p []byte) (progressMsg, error) {
	d := dec{b: p}
	m := progressMsg{job: d.u64(), lease: d.u64()}
	m.dSolves = d.u64()
	m.dSolveNanos = d.u64()
	m.dAssumption = d.u64()
	m.dReused = d.u64()
	return m, d.done()
}

// encodeStats flattens solver statistics into the payload. CacheHits is
// always 0 but keeps its slot, so the wire format is unchanged.
func (e *enc) stats(st solver.Stats) {
	e.i64(st.Queries)
	e.i64(st.CacheHits)
	e.i64(st.SatQueries)
	e.i64(st.UnsatQueries)
	e.i64(int64(st.SolveTime))
	e.i64(st.MaxQuerySize)
	e.i64(st.ClausesTotal)
	e.i64(st.AuxVarsTotal)
	e.i64(st.FastPathConst)
	e.i64(st.AssumptionSolves)
	e.i64(st.ConstraintsReused)
	e.i64(st.InternHits)
}

func (d *dec) stats() solver.Stats {
	return solver.Stats{
		Queries:       d.i64(),
		CacheHits:     d.i64(),
		SatQueries:    d.i64(),
		UnsatQueries:  d.i64(),
		SolveTime:     time.Duration(d.i64()),
		MaxQuerySize:  d.i64(),
		ClausesTotal:  d.i64(),
		AuxVarsTotal:  d.i64(),
		FastPathConst: d.i64(),

		AssumptionSolves:  d.i64(),
		ConstraintsReused: d.i64(),
		InternHits:        d.i64(),
	}
}

// cov flattens a coverage set as raw bitmaps (the block bits share the
// decision-prefix bit packing); a nil set is a zero/zero pair.
func (e *enc) cov(s *coverage.Set) {
	if s == nil {
		e.bits(nil)
		e.bytes(nil)
		return
	}
	blocks, branches := s.Snapshot()
	e.bits(blocks)
	e.bytes(branches)
}

// cov rebuilds a coverage set over m. With a nil map the bitmaps are
// consumed and discarded (the peer ran without a coverage universe view).
func (d *dec) cov(m *coverage.Map) *coverage.Set {
	blocks := d.bits()
	branches := d.bytes()
	if d.err != nil || m == nil || (len(blocks) == 0 && len(branches) == 0) {
		return nil
	}
	s := m.NewSet()
	if err := s.MergeBitmap(blocks, branches); err != nil {
		d.fail("%v", err)
		return nil
	}
	return s
}

// resultMsg carries a lease's completed shard back to the coordinator.
type resultMsg struct {
	job   uint64
	lease uint64
	shard *harness.Shard
}

func encodeResult(m resultMsg) []byte {
	var e enc
	e.u64(m.job)
	e.u64(m.lease)
	e.shard(m.shard)
	return e.b
}

// shard flattens one shard payload into the message.
func (e *enc) shard(sh *harness.Shard) {
	e.boolean(sh.Truncated)
	e.i64(int64(sh.Infeasible))
	e.i64(int64(sh.DepthTruncated))
	e.i64(sh.BranchQueries)
	e.stats(sh.SolverStats)
	e.cov(sh.Cov)
	e.u64(uint64(len(sh.Paths)))
	for i := range sh.Paths {
		p := &sh.Paths[i]
		e.bits(sh.Decisions[i])
		e.boolean(p.Crashed)
		e.i64(int64(p.Branches))
		e.expr(p.Cond)
		e.str(p.Template)
		e.str(p.Canonical)
		e.u64(uint64(len(p.Exprs)))
		for _, x := range p.Exprs {
			e.expr(x)
		}
		names := make([]string, 0, len(p.Model))
		for n := range p.Model {
			names = append(names, n)
		}
		sort.Strings(names)
		e.u64(uint64(len(names)))
		for _, n := range names {
			e.str(n)
			e.u64(p.Model[n])
		}
		e.cov(sh.PathCov[i])
	}
}

// expr encodes one expression as its s-expression string in the payload's
// stream.
func (e *enc) expr(x *sym.Expr) {
	if e.pr == nil {
		e.pr = sym.NewPrinter()
	}
	e.tmp = e.pr.Append(e.tmp[:0], x)
	e.bytes(e.tmp)
}

// decodeResult rebuilds a result payload. covMap is the coordinator's
// coverage universe for the job's agent (nil drops coverage).
func decodeResult(payload []byte, covMap *coverage.Map) (resultMsg, error) {
	d := dec{b: payload}
	m := resultMsg{job: d.u64(), lease: d.u64()}
	m.shard = d.shard(covMap)
	return m, d.done()
}

// shard rebuilds one shard payload.
func (d *dec) shard(covMap *coverage.Map) *harness.Shard {
	sh := &harness.Shard{Result: &harness.Result{}}
	sh.Truncated = d.boolean()
	sh.Infeasible = int(d.i64())
	sh.DepthTruncated = int(d.i64())
	sh.BranchQueries = d.i64()
	sh.SolverStats = d.stats()
	sh.Cov = d.cov(covMap)
	npaths := d.count("path", 8)
	for i := 0; i < npaths && d.err == nil; i++ {
		p := harness.PathResult{ID: i}
		decisions := d.bits()
		p.Crashed = d.boolean()
		p.Branches = int(d.i64())
		p.Cond = d.expr("cond")
		p.Template = d.str()
		p.Canonical = d.str()
		nexprs := d.count("expr", 1)
		for j := 0; j < nexprs && d.err == nil; j++ {
			p.Exprs = append(p.Exprs, d.expr("trace expr"))
		}
		nmodel := d.count("model entry", 2)
		if nmodel > 0 && d.err == nil {
			p.Model = make(sym.Assignment, nmodel)
			for j := 0; j < nmodel && d.err == nil; j++ {
				name := d.str()
				p.Model[name] = d.u64()
			}
		}
		sh.Paths = append(sh.Paths, p)
		sh.Decisions = append(sh.Decisions, decisions)
		sh.PathCov = append(sh.PathCov, d.cov(covMap))
	}
	return sh
}

// expr decodes one s-expression of the payload's stream.
func (d *dec) expr(what string) *sym.Expr {
	s := d.str()
	if d.err != nil {
		return nil
	}
	x, err := d.rd.Parse(s)
	if err != nil {
		d.fail("bad %s %q: %v", what, s, err)
		return nil
	}
	return x
}

// traceMsg ships one span segment — the worker's buffered spans since
// its previous trace frame — back to the coordinator (v5). Segments are
// drained and sent just before the lease's result frame, while the
// coordinator is still reading the lease. The payload is pure observability: the coordinator merges
// it into the active tracer (or drops it when tracing stopped) and the
// merge can never influence a result.
type traceMsg struct {
	job   uint64
	lease uint64
	seg   obs.Segment
}

func encodeTrace(m traceMsg) []byte {
	var e enc
	e.u64(m.job)
	e.u64(m.lease)
	e.segment(m.seg)
	return e.b
}

func decodeTrace(p []byte) (traceMsg, error) {
	d := dec{b: p}
	m := traceMsg{job: d.u64(), lease: d.u64()}
	m.seg = d.segment()
	return m, d.done()
}

// segment flattens one obs span segment into the payload.
func (e *enc) segment(s obs.Segment) {
	e.str(s.Process)
	e.i64(s.BaseUnixMicro)
	e.u64(s.Parent)
	e.u64(uint64(len(s.Events)))
	for _, ev := range s.Events {
		e.str(ev.Name)
		e.i64(ev.TS)
		e.i64(ev.Dur)
		e.i64(ev.TID)
		e.u64(ev.ID)
		e.u64(ev.Parent)
	}
}

// segment rebuilds one obs span segment.
func (d *dec) segment() obs.Segment {
	s := obs.Segment{Process: d.str(), BaseUnixMicro: d.i64(), Parent: d.u64()}
	n := d.count("trace event", 6)
	for i := 0; i < n && d.err == nil; i++ {
		s.Events = append(s.Events, obs.SegmentEvent{
			Name:   d.str(),
			TS:     d.i64(),
			Dur:    d.i64(),
			TID:    d.i64(),
			ID:     d.u64(),
			Parent: d.u64(),
		})
	}
	return s
}

// ErrVersionMismatch is returned by Work when the coordinator refuses this
// binary's protocol version (it received a reject frame). Callers treat it
// as a usage-level error: the fix is deploying matching binaries, not
// retrying.
var ErrVersionMismatch = errors.New("protocol version mismatch")

// errProtocol wraps peer misbehavior so connection handling can distinguish
// it from plain I/O errors.
var errProtocol = errors.New("dist: protocol error")

func protocolErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", errProtocol, err)
}
