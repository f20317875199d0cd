package trace

import (
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
)

func TestAddRefCountsDistinct(t *testing.T) {
	tr := New("t")
	for _, p := range []mem.Page{1, 2, 1, 3, 2, 1} {
		tr.AddRef(p)
	}
	if tr.Refs != 6 {
		t.Errorf("refs = %d, want 6", tr.Refs)
	}
	if tr.Distinct != 3 {
		t.Errorf("distinct = %d, want 3", tr.Distinct)
	}
}

func TestAllocInterning(t *testing.T) {
	tr := New("t")
	d := &directive.Allocate{Arms: []directive.Arm{{PI: 2, X: 10}, {PI: 1, X: 3}}}
	tr.AddAlloc(d)
	tr.AddAlloc(d)
	if len(tr.Allocs) != 1 {
		t.Errorf("side table entries = %d, want 1 (interned)", len(tr.Allocs))
	}
	if len(tr.Events) != 2 {
		t.Errorf("events = %d, want 2", len(tr.Events))
	}
	arms := tr.Arms(tr.Events[0])
	if len(arms) != 2 || arms[0].X != 10 {
		t.Errorf("arms = %v", arms)
	}
}

func TestLockUnlockRoundTrip(t *testing.T) {
	tr := New("t")
	tr.AddLock(3, 7, []mem.Page{4, 5})
	tr.AddUnlock([]mem.Page{4, 5})
	ls := tr.Lock(tr.Events[0])
	if ls.PJ != 3 || ls.Site != 7 || len(ls.Pages) != 2 {
		t.Errorf("lock set = %+v", ls)
	}
	ul := tr.Unlock(tr.Events[1])
	if len(ul) != 2 || ul[0] != 4 {
		t.Errorf("unlock pages = %v", ul)
	}
}

func TestPagesAndStrip(t *testing.T) {
	tr := New("t")
	tr.AddRef(1)
	tr.AddLock(2, 0, []mem.Page{1})
	tr.AddRef(2)
	pages := tr.Pages()
	if len(pages) != 2 || pages[0] != 1 || pages[1] != 2 {
		t.Errorf("pages = %v", pages)
	}
	s := tr.StripDirectives()
	if len(s.Events) != 2 || s.Refs != 2 || s.Distinct != 2 {
		t.Errorf("stripped = %+v", s)
	}
}

func TestSummary(t *testing.T) {
	tr := New("prog")
	tr.AddRef(1)
	tr.AddLock(2, 0, nil)
	got := tr.Summary()
	want := "prog: R=1 references, V=1 distinct pages, 1 directive events"
	if got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}

// TestAddRefDistinctWildAndZeroPages checks the distinct-page set at its
// edges: page 0 (the first bitset bit), a wild page far beyond the dense
// bitset, which must take the map path without growing the bitset, and
// a negative page.
func TestAddRefDistinctWildAndZeroPages(t *testing.T) {
	tr := New("t")
	for _, p := range []mem.Page{0, 0, 1 << 30, 63, 64, 1 << 30, 0, -1, pageSetMaxDense - 1, pageSetMaxDense, -1, 64} {
		tr.AddRef(p)
	}
	if tr.Refs != 12 {
		t.Errorf("refs = %d, want 12", tr.Refs)
	}
	if tr.Distinct != 7 {
		t.Errorf("distinct = %d, want 7 (0, 63, 64, 1<<30, -1 and both sides of the dense cap)", tr.Distinct)
	}
	if n := len(tr.seen.bits); n > pageSetMaxDense/64 {
		t.Errorf("bitset grew to %d words, cap %d", n, pageSetMaxDense/64)
	}

	wild := New("wild")
	wild.AddRef(1 << 30)
	wild.AddRef(1 << 30)
	if wild.Distinct != 1 || len(wild.seen.bits) != 0 {
		t.Errorf("wild page only: distinct = %d, bitset words = %d; want 1 and 0", wild.Distinct, len(wild.seen.bits))
	}

	zero := New("zero")
	zero.AddRef(0)
	zero.AddRef(0)
	if zero.Distinct != 1 {
		t.Errorf("page 0 only: distinct = %d, want 1", zero.Distinct)
	}
}
