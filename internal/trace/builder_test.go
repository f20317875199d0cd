package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
)

// TestBuilderMatchesTrace makes the same calls on a Builder and on a
// plain Trace, long enough to spill several chunks of both columns, with
// the site column switched on only after the first spills (so the
// backfill must count the chunked events), and requires identical
// traces: events, side tables, site column and counters.
func TestBuilderMatchesTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b, plain := NewBuilder("b"), New("b")
	alloc := &directive.Allocate{Arms: []directive.Arm{{PI: 1, X: 4}}}
	sitesOn, next := false, NoSite
	for i := 0; i < 10*chunkLen; i++ {
		switch r := rng.Intn(1000); {
		case i == 3*chunkLen/2:
			id := b.AddSite(Site{Line: i})
			if got := plain.AddSite(Site{Line: i}); got != id {
				t.Fatalf("AddSite = %d, Builder %d", got, id)
			}
			sitesOn, next = true, id
		case sitesOn && r < 300:
			// Alternate between the site and no site, so runs stay short
			// and the site column spills too.
			b.SetSite(next)
			plain.SetSite(next)
			next = -1 - next
		case r == 0:
			b.AddAlloc(alloc)
			plain.AddAlloc(alloc)
		case r == 1:
			pages := []mem.Page{mem.Page(i % 7)}
			b.AddLock(2, i, pages)
			plain.AddLock(2, i, pages)
		case r == 2:
			pages := []mem.Page{mem.Page(i % 5)}
			b.AddUnlock(pages)
			plain.AddUnlock(pages)
		default:
			p := mem.Page(rng.Intn(300))
			b.AddRef(p)
			plain.AddRef(p)
		}
	}
	if b.Refs() != plain.Refs {
		t.Fatalf("Builder Refs() = %d, want %d", b.Refs(), plain.Refs)
	}
	got := b.Trace()
	if !reflect.DeepEqual(got.Events, plain.Events) || !reflect.DeepEqual(got.siteRuns, plain.siteRuns) {
		t.Fatalf("columns differ: %d events / %d runs, want %d / %d",
			len(got.Events), len(got.siteRuns), len(plain.Events), len(plain.siteRuns))
	}
	if len(plain.siteRuns) <= chunkLen {
		t.Fatalf("site column has %d runs; the test must spill it", len(plain.siteRuns))
	}
	if got.Refs != plain.Refs || got.Distinct != plain.Distinct || got.MaxPage() != plain.MaxPage() {
		t.Fatalf("R=%d V=%d max=%d, want R=%d V=%d max=%d",
			got.Refs, got.Distinct, got.MaxPage(), plain.Refs, plain.Distinct, plain.MaxPage())
	}
	var gb, pb bytes.Buffer
	if _, err := WriteCDT3(&gb, got, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCDT3(&pb, plain, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), pb.Bytes()) {
		t.Fatal("CDT3 encodings differ")
	}
}
