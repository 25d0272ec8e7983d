package solver

import (
	"fmt"
	"sync"
	"testing"

	"github.com/soft-testing/soft/internal/sym"
)

func TestBasicSatUnsat(t *testing.T) {
	s := New()
	x := sym.Var("x", 16)
	if r, m := s.Check(sym.EqConst(x, 42)); r != Sat || m["x"] != 42 {
		t.Fatalf("x==42: got %v %v", r, m)
	}
	if r, _ := s.Check(sym.EqConst(x, 1), sym.EqConst(x, 2)); r != Unsat {
		t.Fatal("x==1 AND x==2 must be unsat")
	}
}

func TestModelsSatisfy(t *testing.T) {
	s := New()
	x := sym.Var("x", 16)
	y := sym.Var("y", 8)
	cases := [][]*sym.Expr{
		{sym.Ult(x, sym.Const(16, 100)), sym.Ugt(x, sym.Const(16, 90))},
		{sym.EqConst(sym.And(x, sym.Const(16, 0xff)), 0x7f)},
		{sym.EqConst(sym.Add(sym.ZExt(y, 16), x), 0x1234)},
		{sym.LOr(sym.EqConst(y, 0), sym.EqConst(y, 255)), sym.Ne(y, sym.Const(8, 0))},
	}
	for i, cs := range cases {
		r, m := s.Check(cs...)
		if r != Sat {
			t.Fatalf("case %d must be sat", i)
		}
		if !sym.EvalBool(sym.LAnd(cs...), m) {
			t.Fatalf("case %d: model %v does not satisfy", i, m)
		}
	}
}

func TestFastPathConstants(t *testing.T) {
	s := New()
	if r, _ := s.Check(sym.Bool(true)); r != Sat {
		t.Fatal("true is sat")
	}
	if r, _ := s.Check(sym.Bool(false)); r != Unsat {
		t.Fatal("false is unsat")
	}
	// Constant-foldable constraint should be answered without bit-blasting.
	c := sym.Eq(sym.Const(8, 3), sym.Const(8, 3))
	if r, _ := s.Check(c); r != Sat {
		t.Fatal("3==3 is sat")
	}
	if got := s.Stats().FastPathConst; got != 3 {
		t.Fatalf("FastPathConst = %d, want 3", got)
	}
	if got := s.Stats().ClausesTotal; got != 0 {
		t.Fatalf("constant queries must not reach the encoder, got %d clauses", got)
	}
}

// TestCache: the solver keeps no query cache, so repeating one query
// solves it each time, counts no hit, and hands every caller a fresh model
// map it may modify.
func TestCache(t *testing.T) {
	s := New()
	x := sym.Var("x", 16)
	q := sym.Ult(x, sym.Const(16, 10))
	_, m1 := s.Check(q)
	_, m2 := s.Check(q)
	r3, m3 := s.Check(q)
	st := s.Stats()
	if st.Queries != 3 || st.AssumptionSolves != 3 || st.CacheHits != 0 {
		t.Fatalf("Queries = %d, AssumptionSolves = %d, CacheHits = %d; want 3, 3 and 0",
			st.Queries, st.AssumptionSolves, st.CacheHits)
	}
	if r3 != Sat || m3["x"] >= 10 {
		t.Fatalf("bad answer: %v %v", r3, m3)
	}
	m1["x"] = 9999
	if m2["x"] == 9999 || m3["x"] == 9999 {
		t.Fatal("repeated queries returned aliased model maps")
	}
}

func TestConcurrentQueries(t *testing.T) {
	s := New()
	x := sym.Var("x", 16)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				v := uint64(g*8 + i)
				r, m := s.Check(sym.EqConst(x, v))
				if r != Sat {
					errs <- fmt.Errorf("x==%d must be sat", v)
					return
				}
				if m["x"] != v {
					errs <- fmt.Errorf("x==%d gave model %v", v, m)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	s := New()
	x := sym.Var("x", 8)
	s.Check(sym.EqConst(x, 5))
	s.Check(sym.EqConst(x, 5), sym.EqConst(x, 6))
	st := s.Stats()
	if st.Queries != 2 || st.SatQueries != 1 || st.UnsatQueries != 1 {
		t.Fatalf("bad accounting: %+v", st)
	}
}

// TestIntersectionQueries exercises the crosscheck-phase query shape: the
// conjunction of two path-condition groups from "different agents".
func TestIntersectionQueries(t *testing.T) {
	s := New()
	p := sym.Var("port", 16)
	// Agent A forwards for p in [1,24]; errors otherwise.
	aFwd := sym.LAnd(sym.Uge(p, sym.Const(16, 1)), sym.Ule(p, sym.Const(16, 24)))
	aErr := sym.LNot(aFwd)
	// Agent B forwards for p in [1,24] or p == 0xfffd (controller port).
	bFwd := sym.LOr(
		sym.LAnd(sym.Uge(p, sym.Const(16, 1)), sym.Ule(p, sym.Const(16, 24))),
		sym.EqConst(p, 0xfffd),
	)
	bErr := sym.LNot(bFwd)

	// A forwards while B errors: impossible.
	if r, _ := s.Check(aFwd, bErr); r != Unsat {
		t.Fatal("A-fwd ∧ B-err should be unsat")
	}
	// A errors while B forwards: exactly the controller port.
	r, m := s.Check(aErr, bFwd)
	if r != Sat {
		t.Fatal("A-err ∧ B-fwd should be sat")
	}
	if m["port"] != 0xfffd {
		t.Fatalf("inconsistency witness = %#x, want 0xfffd", m["port"])
	}
}

func BenchmarkCheckRangeQuery(b *testing.B) {
	s := New()
	x := sym.Var("x", 16)
	q := sym.LAnd(
		sym.Ult(x, sym.Const(16, 0x8000)),
		sym.Ugt(x, sym.Const(16, 0x100)),
		sym.Ne(x, sym.Const(16, 0x1234)),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r, _ := s.Check(q); r != Sat {
			b.Fatal("must be sat")
		}
	}
}
