// Package trace defines the page-reference trace that the virtual memory
// simulator replays. A trace is the sequence of data-page references a
// program makes (instructions and constants are assumed permanently
// resident, per the paper's §5), interleaved with the memory-directive
// events (ALLOCATE / LOCK / UNLOCK) that the compiler inserted, resolved
// to concrete pages at execution time.
package trace

import (
	"fmt"
	"sync"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
)

// EventKind discriminates trace events.
type EventKind uint8

const (
	// EvRef is a reference to a data page.
	EvRef EventKind = iota
	// EvAlloc is an executed ALLOCATE directive; Arg indexes Allocs.
	EvAlloc
	// EvLock is an executed LOCK directive; Arg indexes LockSets.
	EvLock
	// EvUnlock is an executed UNLOCK directive; Arg indexes UnlockSets.
	EvUnlock
)

// Event is one trace entry. For EvRef, Arg is the page number; for the
// directive events it indexes the corresponding side table. Events are
// kept to 8 bytes so multi-million-reference traces stay cheap.
type Event struct {
	Kind EventKind
	Arg  int32
}

// AllocDirective is the side-table entry of an executed ALLOCATE: the
// else-chain of (PI, X) arms plus the key of the loop the directive
// precedes (used by directive-set selectors with per-loop overrides).
type AllocDirective struct {
	Label string
	Arms  []directive.Arm
}

// LockSet is the resolved page set of one LOCK execution.
type LockSet struct {
	PJ    int
	Site  int // lock site id; re-execution of a site replaces its locks
	Pages []mem.Page
}

// Trace is a complete program execution record.
type Trace struct {
	Name   string
	Events []Event

	// Side tables referenced by Event.Arg.
	Allocs     []AllocDirective
	LockSets   []LockSet
	UnlockSets [][]mem.Page

	// Sites is the source-site table of the optional provenance
	// side-band; see site.go. Empty on traces built without SetSite.
	Sites []Site

	// Refs is R, the number of page references.
	Refs int
	// Distinct is V, the number of distinct pages referenced.
	Distinct int

	allocIndex map[*directive.Allocate]int32
	seen       pageSet

	// maxSeen tracks the largest referenced page incrementally (valid
	// while maxKnown), so MaxPage and the streaming Meta view are O(1)
	// and never force the memoized views to materialize. Traces built
	// by literal construction (internal views, chaos clones) leave
	// maxKnown false and fall back to a one-time scan.
	maxSeen  mem.Page
	maxKnown bool

	// Site column state (site.go): the RLE runs parallel to Events, the
	// site stamped on the next appended event, and whether the column
	// exists at all.
	siteRuns []siteRun
	curSite  int32
	sitesOn  bool

	// Chunked column state of a trace under construction by a Builder
	// (builder.go): the full chunks set aside from Events and siteRuns,
	// which then hold only the tails.
	chunked   bool
	evChunks  [][]Event
	runChunks [][]siteRun

	// mu guards the memoized views derived from Events (reference string,
	// page universe, directive-free trace). The caches key on len(Events),
	// so appending events invalidates them; editing events in place after a
	// view has been requested is not supported.
	mu    sync.Mutex
	views *derived
	// tables caches the Tables() result; valid while every side-table
	// length is unchanged (the tables are append-only, so equal lengths
	// mean identical content). Guarded by mu.
	tables *SideTables
}

// derived holds the memoized views of one event-stream snapshot. pages
// and dirs together are the columnar form of the event stream: the
// reference string as one contiguous page column, with the (rare)
// directive events side-banded at their reference positions — exactly
// the shape the block cursor serves zero-copy and the CDT3 wire format
// stores.
type derived struct {
	events   int        // len(t.Events) when built
	pages    []mem.Page // the reference string, in order
	dirs     []dirPos   // directive events at their reference positions
	maxPage  mem.Page   // largest referenced page; -1 when there are none
	uni      *Universe  // dense-id view, built on first Universe call
	refsOnly *Trace     // directive-free view, built on first RefsOnly call
}

// dirPos is one side-banded directive event: ev executes after the
// first refsBefore entries of the page column.
type dirPos struct {
	refsBefore int64
	ev         Event
}

// Universe is the dense page-id view of a trace's reference string: every
// distinct page is assigned a contiguous id in first-appearance order, so
// analyses can replace per-page hash lookups with array indexing. All
// slices are shared and read-only.
type Universe struct {
	// NumPages is the number of distinct pages (the id space size, V).
	NumPages int
	// MaxPage is the largest referenced page number, -1 when no refs.
	MaxPage mem.Page
	// IDs holds the dense id of each reference, parallel to Pages().
	IDs []int32
	// ByID maps a dense id back to its page number.
	ByID []mem.Page
}

// New returns an empty trace.
func New(name string) *Trace {
	return &Trace{
		Name:       name,
		allocIndex: map[*directive.Allocate]int32{},
		curSite:    NoSite,
		maxSeen:    -1,
		maxKnown:   true,
	}
}

// AddRef appends a page reference.
func (t *Trace) AddRef(p mem.Page) {
	t.Events = append(room(t.chunked, t.Events, &t.evChunks), Event{Kind: EvRef, Arg: int32(p)})
	t.noteSite()
	t.Refs++
	if t.maxKnown && p > t.maxSeen {
		t.maxSeen = p
	}
	if t.seen.add(p) {
		t.Distinct++
	}
}

// pageSet is the set of pages a trace has referenced, behind Distinct: a
// dense bitset grown to the largest page seen, with a map for pages at
// or above pageSetMaxDense (and negative ones), so a wild page number
// cannot allocate a huge table. The zero value is an empty set.
type pageSet struct {
	bits   []uint64
	sparse map[mem.Page]struct{}
}

// pageSetMaxDense bounds the dense bitset to 512 KiB.
const pageSetMaxDense = 1 << 22

// add inserts p and reports whether it was new.
func (s *pageSet) add(p mem.Page) bool {
	if p < 0 || p >= pageSetMaxDense {
		if _, ok := s.sparse[p]; ok {
			return false
		}
		if s.sparse == nil {
			s.sparse = map[mem.Page]struct{}{}
		}
		s.sparse[p] = struct{}{}
		return true
	}
	w, bit := int(p>>6), uint64(1)<<(p&63)
	if w >= len(s.bits) {
		n := max(2*len(s.bits), w+1, 16)
		s.bits = append(s.bits, make([]uint64, min(n, pageSetMaxDense/64)-len(s.bits))...)
	}
	if s.bits[w]&bit != 0 {
		return false
	}
	s.bits[w] |= bit
	return true
}

// maxPageSeen returns the largest referenced page, computing and caching
// it with a one-time scan on traces assembled by literal construction.
func (t *Trace) maxPageSeen() mem.Page {
	if t.maxKnown {
		return t.maxSeen
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.maxKnown {
		maxPg := mem.Page(-1)
		for _, e := range t.Events {
			if e.Kind == EvRef && mem.Page(e.Arg) > maxPg {
				maxPg = mem.Page(e.Arg)
			}
		}
		t.maxSeen = maxPg
		t.maxKnown = true
	}
	return t.maxSeen
}

// AddAlloc appends an ALLOCATE execution. The arm list of a given
// directive is interned: repeated executions share one side-table entry.
func (t *Trace) AddAlloc(d *directive.Allocate) {
	idx, ok := t.allocIndex[d]
	if !ok {
		idx = int32(len(t.Allocs))
		label := ""
		if d.For != nil {
			label = d.For.Key()
		}
		t.Allocs = append(t.Allocs, AllocDirective{Label: label, Arms: d.Arms})
		t.allocIndex[d] = idx
	}
	t.Events = append(room(t.chunked, t.Events, &t.evChunks), Event{Kind: EvAlloc, Arg: idx})
	t.noteSite()
}

// AddLock appends a LOCK execution with its resolved pages.
func (t *Trace) AddLock(pj, site int, pages []mem.Page) {
	idx := int32(len(t.LockSets))
	t.LockSets = append(t.LockSets, LockSet{PJ: pj, Site: site, Pages: pages})
	t.Events = append(room(t.chunked, t.Events, &t.evChunks), Event{Kind: EvLock, Arg: idx})
	t.noteSite()
}

// AddUnlock appends an UNLOCK execution covering the given pages.
func (t *Trace) AddUnlock(pages []mem.Page) {
	idx := int32(len(t.UnlockSets))
	t.UnlockSets = append(t.UnlockSets, pages)
	t.Events = append(room(t.chunked, t.Events, &t.evChunks), Event{Kind: EvUnlock, Arg: idx})
	t.noteSite()
}

// Page returns the page of a reference event.
func (t *Trace) Page(e Event) mem.Page { return mem.Page(e.Arg) }

// Alloc returns the directive of an EvAlloc event.
func (t *Trace) Alloc(e Event) AllocDirective { return t.Allocs[e.Arg] }

// Arms returns the arm list of an EvAlloc event.
func (t *Trace) Arms(e Event) []directive.Arm { return t.Allocs[e.Arg].Arms }

// Lock returns the lock set of an EvLock event.
func (t *Trace) Lock(e Event) LockSet { return t.LockSets[e.Arg] }

// Unlock returns the page set of an EvUnlock event.
func (t *Trace) Unlock(e Event) []mem.Page { return t.UnlockSets[e.Arg] }

// view returns the memoized derived views, rebuilding them when the event
// count has changed since they were computed. Callers must hold t.mu.
func (t *Trace) view() *derived {
	if t.views == nil || t.views.events != len(t.Events) {
		d := &derived{events: len(t.Events), maxPage: -1}
		d.pages = make([]mem.Page, 0, t.Refs)
		for _, e := range t.Events {
			if e.Kind == EvRef {
				pg := mem.Page(e.Arg)
				d.pages = append(d.pages, pg)
				if pg > d.maxPage {
					d.maxPage = pg
				}
			} else {
				d.dirs = append(d.dirs, dirPos{refsBefore: int64(len(d.pages)), ev: e})
			}
		}
		t.views = d
	}
	return t.views
}

// Pages returns the reference string (no directive events). The slice is
// computed once and shared across calls — callers must treat it as
// read-only. Appending further events invalidates the memo.
func (t *Trace) Pages() []mem.Page {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.view().pages
}

// MaxPage returns the largest page number the trace references, or -1 for
// an empty reference string. It is O(1) on traces built through the
// Add* methods and never materializes the memoized views.
func (t *Trace) MaxPage() mem.Page {
	return t.maxPageSeen()
}

// ViewsMaterialized reports which memoized derived views have been built
// (for tests and diagnostics): the columnar page/directive columns, the
// dense-id Universe, and the directive-free RefsOnly twin. A replay
// through the cursor API builds only the columnar view; a streamed CDT3
// replay builds none of them.
func (t *Trace) ViewsMaterialized() (columnar, universe, refsOnly bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.views == nil {
		return false, false, false
	}
	return true, t.views.uni != nil, t.views.refsOnly != nil
}

// Universe returns the memoized dense page-id view of the reference
// string. The returned struct and its slices are shared and read-only.
func (t *Trace) Universe() *Universe {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.universeLocked(t.view())
}

// universeLocked builds d's universe memo. Callers must hold t.mu.
func (t *Trace) universeLocked(d *derived) *Universe {
	if d.uni == nil {
		u := &Universe{MaxPage: d.maxPage, IDs: make([]int32, len(d.pages))}
		idOf := make(map[mem.Page]int32, t.Distinct)
		for i, pg := range d.pages {
			id, ok := idOf[pg]
			if !ok {
				id = int32(len(u.ByID))
				idOf[pg] = id
				u.ByID = append(u.ByID, pg)
			}
			u.IDs[i] = id
		}
		u.NumPages = len(u.ByID)
		d.uni = u
	}
	return d.uni
}

// RefsOnly returns the directive-free view of the trace: the same
// reference string with no ALLOCATE/LOCK/UNLOCK events, memoized and
// shared across calls. A trace with no directive events returns itself.
// The returned trace is read-only; use StripDirectives for a private
// mutable copy.
func (t *Trace) RefsOnly() *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.view()
	if d.refsOnly == nil {
		if len(d.pages) == len(t.Events) {
			d.refsOnly = t // already directive-free
			return d.refsOnly
		}
		events := make([]Event, len(d.pages))
		for i, pg := range d.pages {
			events[i] = Event{Kind: EvRef, Arg: int32(pg)}
		}
		ro := &Trace{
			Name:     t.Name,
			Events:   events,
			Refs:     len(d.pages),
			Distinct: t.Distinct,
			curSite:  NoSite,
			maxSeen:  d.maxPage,
			maxKnown: true,
		}
		// The site column, when present, is projected onto the
		// reference-only events (sharing the site table) so attributed
		// runs of directive-blind policies see the same provenance.
		if t.sitesOn {
			ro.Sites = t.Sites
			ro.sitesOn = true
			cur := t.SiteCursor()
			for _, e := range t.Events {
				s := cur.Next()
				if e.Kind == EvRef {
					ro.appendSiteRun(1, s)
				}
			}
		}
		// The view shares the parent's reference string and universe
		// (built now if needed — it is O(R), like this view itself).
		ro.views = &derived{events: len(events), pages: d.pages, maxPage: d.maxPage, uni: t.universeLocked(d)}
		ro.views.refsOnly = ro
		d.refsOnly = ro
	}
	return d.refsOnly
}

// StripDirectives returns a copy of the trace with directive events
// removed, for running directive-blind policies (LRU, WS) on the same
// reference string. The copy shares no mutable state with t.
func (t *Trace) StripDirectives() *Trace {
	out := New(t.Name)
	if t.sitesOn {
		out.Sites = append([]Site(nil), t.Sites...)
		out.sitesOn = true
	}
	cur := t.SiteCursor()
	for _, e := range t.Events {
		s := cur.Next()
		if e.Kind == EvRef {
			out.curSite = s // no-op attribution when the column is off
			out.AddRef(mem.Page(e.Arg))
		}
	}
	return out
}

// Summary renders a one-line description.
func (t *Trace) Summary() string {
	nd := 0
	for _, e := range t.Events {
		if e.Kind != EvRef {
			nd++
		}
	}
	return fmt.Sprintf("%s: R=%d references, V=%d distinct pages, %d directive events", t.Name, t.Refs, t.Distinct, nd)
}
