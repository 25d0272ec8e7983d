package sym

import (
	"math/rand"
	"sync"
	"testing"
)

// Rebuilding an interned expression must find its canonical node before
// allocating anything: replay rebuilds the same conditions on every path.
func TestReinternAllocatesNothing(t *testing.T) {
	x, y := Var("x", 16), Var("y", 16)
	a, b := EqConst(x, 7), Ult(y, Const(16, 9))
	want := Eq(Lshr(x, 3), Lshr(y, 3))
	and := LAnd(a, b)
	if n := testing.AllocsPerRun(100, func() {
		if Eq(Lshr(x, 3), Lshr(y, 3)) != want {
			t.Fatal("rebuilt eq is not the interned node")
		}
	}); n != 0 {
		t.Errorf("re-building an interned Eq allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if LAnd(a, b) != and {
			t.Fatal("rebuilt land is not the interned node")
		}
	}); n != 0 {
		t.Errorf("re-building an interned LAnd allocates %.1f times, want 0", n)
	}
}

// Goroutines racing to build the same expressions all get the one
// canonical node back.
func TestConcurrentInterningIsCanonical(t *testing.T) {
	const goroutines, exprs = 8, 200
	build := func() []*Expr {
		// Every goroutine draws the same sequence, under a seed no other
		// test uses, so most of its nodes are new to the table.
		r := rand.New(rand.NewSource(0x5eed))
		out := make([]*Expr, exprs)
		for i := range out {
			out[i] = randExpr(r, 4, 32, i%2 == 0)
		}
		return out
	}
	results := make([][]*Expr, goroutines)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			results[g] = build()
		}(g)
	}
	start.Done()
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d, expression %d: %v is not pointer-equal to goroutine 0's", g, i, results[g][i])
			}
		}
	}
}

// LAnd/LOr drop units and duplicates, keep the first occurrence's order
// and absorb on the dominant constant, both while they scan their kids and
// past addKidScan, where a hash index takes over.
func TestJunctionDedupKeepsFirstOccurrenceOrder(t *testing.T) {
	p, q, r := EqConst(Var("p", 8), 1), EqConst(Var("q", 8), 2), EqConst(Var("r", 8), 3)
	got := LAnd(p, q, LAnd(q, r), True, p)
	if len(got.Kids) != 3 || got.Kids[0] != p || got.Kids[1] != q || got.Kids[2] != r {
		t.Fatalf("LAnd(p, q, LAnd(q, r), true, p) = %v, want (land p q r)", got)
	}
	if LAnd(p, False, q) != False || LOr(p, True) != True || LOr(False, p) != p {
		t.Fatal("constant absorption or unit dropping changed")
	}
	// Past the linear-scan width the dedup indexes by hash.
	var wide []*Expr
	v := Var("v", 8)
	for i := 0; i < 3*addKidScan; i++ {
		wide = append(wide, EqConst(v, uint64(i)))
	}
	or := LOr(append(wide, wide...)...)
	if len(or.Kids) != len(wide) {
		t.Fatalf("wide LOr kept %d kids, want %d", len(or.Kids), len(wide))
	}
	for i, k := range or.Kids {
		if k != wide[i] {
			t.Fatalf("wide LOr kid %d out of first-occurrence order", i)
		}
	}
}
