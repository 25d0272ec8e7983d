package solver

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/soft-testing/soft/internal/sym"
)

// TestSharedSolverStress hammers one shared solver from 8 goroutines with
// overlapping, structurally equal queries (run it under -race via `make
// race`). Every answer and model must equal the sequential oracle's, and
// the atomic counters must account for every query exactly: with G
// goroutines issuing the same N queries, Queries = G*N.
func TestSharedSolverStress(t *testing.T) {
	x := sym.Var("x", 16)
	y := sym.Var("y", 8)
	var queries []*sym.Expr
	for i := 0; i < 12; i++ {
		q := sym.LAnd(
			sym.Ult(x, sym.Const(16, uint64(100+i*37))),
			sym.Ugt(x, sym.Const(16, uint64(i*31))),
			sym.EqConst(sym.And(y, sym.Const(8, 0x0f)), uint64(i%16)),
		)
		if i%3 == 0 {
			// Mix in unsatisfiable shapes.
			q = sym.LAnd(q, sym.EqConst(x, uint64(i)), sym.EqConst(x, uint64(i+1)))
		}
		queries = append(queries, q)
	}

	// Sequential oracle: answers and canonical models per query.
	oracle := New()
	type verdict struct {
		res   Result
		model sym.Assignment
	}
	want := make([]verdict, len(queries))
	for i, q := range queries {
		r, m := oracle.Check(q)
		want[i] = verdict{r, m}
	}

	const goroutines = 8
	shared := New()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queries {
				// Each goroutine walks the same query set in a different
				// rotation, maximizing same-key overlap mid-flight.
				i := (k + g*5) % len(queries)
				r, m := shared.Check(queries[i])
				if r != want[i].res {
					errs <- fmt.Errorf("goroutine %d query %d: %v, oracle says %v", g, i, r, want[i].res)
					return
				}
				if !reflect.DeepEqual(m, want[i].model) {
					errs <- fmt.Errorf("goroutine %d query %d: model %v, oracle %v", g, i, m, want[i].model)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := shared.Stats()
	wantQueries := int64(goroutines * len(queries))
	if st.Queries != wantQueries {
		t.Fatalf("Queries = %d, want %d", st.Queries, wantQueries)
	}
	if st.SatQueries+st.UnsatQueries != wantQueries {
		t.Fatalf("Sat+Unsat = %d, want %d", st.SatQueries+st.UnsatQueries, wantQueries)
	}
}

// TestCheckPanicDoesNotPoisonCache: a query whose encoding panics (same
// variable at two widths) must propagate the panic to every caller,
// concurrent ones included, and must leave the shared solver usable.
func TestCheckPanicDoesNotPoisonCache(t *testing.T) {
	s := New()
	bad := sym.LAnd(
		sym.EqConst(sym.Var("w", 8), 1),
		sym.EqConst(sym.Var("w", 16), 2),
	)
	check := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		s.Check(bad)
		return
	}
	const callers = 4
	panics := make([]bool, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			panics[i] = check()
		}()
	}
	wg.Wait()
	for i, p := range panics {
		if !p {
			t.Fatalf("caller %d did not observe the encoding panic", i)
		}
	}
	x := sym.Var("x", 8)
	if r, m := s.Check(sym.EqConst(x, 5)); r != Sat || m["x"] != 5 {
		t.Fatalf("solver unusable after panic: %v %v", r, m)
	}
}

// TestPanicLeavesNoCacheEntry: a query whose solve panics leaves no answer
// behind. Asking it again panics again rather than returning a stored
// result, no sat or unsat outcome is counted for it, and a later query on
// the same solver is answered correctly.
func TestPanicLeavesNoCacheEntry(t *testing.T) {
	s := New()
	bad := sym.LAnd(
		sym.EqConst(sym.Var("w", 8), 1),
		sym.EqConst(sym.Var("w", 16), 2),
	)
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("attempt %d did not panic", i)
				}
			}()
			s.Check(bad)
		}()
	}
	if st := s.Stats(); st.SatQueries+st.UnsatQueries != 0 || st.CacheHits != 0 {
		t.Fatalf("a panicking query recorded an outcome: %+v", st)
	}
	y := sym.Var("y", 8)
	if r, m := s.Check(sym.Ult(y, sym.Const(8, 3))); r != Sat || m["y"] >= 3 {
		t.Fatalf("solver unusable after panic: %v %v", r, m)
	}
}
