// Source-site side-band: an optional column attributing every trace event
// to the source construct that produced it — the loop nest, statement and
// array reference for page references, the owning loop for directive
// events. The column is run-length encoded (consecutive events from the
// same statement collapse into one run) and indexes a small site table, so
// Event stays 8 bytes and a multi-million-reference trace carries full
// provenance in a few kilobytes. Traces built without SetSite carry no
// column at all and are byte-identical to pre-side-band traces on disk.
package trace

import (
	"fmt"
	"math"
)

// Site identifies one source construct: a statement-level array reference
// or a directive insertion point.
type Site struct {
	// Nest is the enclosing loop-nest path, outermost first, joined with
	// " / " (e.g. "DO 40 / DO 30"); "" for code outside any loop.
	Nest string
	// Line is the source line of the statement.
	Line int
	// Array is the referenced array name; "" for directive sites.
	Array string
	// Expr is the source text of the reference (e.g. "A(I,J)") or the
	// directive kind ("ALLOCATE", "LOCK", "UNLOCK") for directive sites.
	Expr string
}

// NoSite is the site id of events recorded while no site was current.
const NoSite int32 = -1

// siteRun is one run of the RLE site column: the next n events all carry
// the same site id (NoSite for unattributed stretches).
type siteRun struct {
	n    int32
	site int32
}

// AddSite appends a site to the table and returns its id. It enables the
// site column (see SetSite) but does not change the current site.
func (t *Trace) AddSite(s Site) int32 {
	t.enableSites()
	id := int32(len(t.Sites))
	t.Sites = append(t.Sites, s)
	return id
}

// SetSite makes id the current site: every subsequently appended event is
// attributed to it until the next SetSite. Passing NoSite marks the
// following events unattributed. The first SetSite (or AddSite) on a trace
// enables the site column; events appended before that point are
// backfilled as NoSite.
func (t *Trace) SetSite(id int32) {
	if !t.sitesOn {
		t.enableSites()
	}
	t.curSite = id
}

// enableSites turns the site column on, backfilling events recorded
// before the column existed. It is kept out of line so that SetSite, a
// per-reference call, stays inlinable.
//
//go:noinline
func (t *Trace) enableSites() {
	if t.sitesOn {
		return
	}
	t.sitesOn = true
	t.curSite = NoSite
	n := len(t.Events)
	for _, c := range t.evChunks {
		n += len(c)
	}
	if n > 0 {
		t.appendSiteRun(int32(n), NoSite)
	}
}

// noteSite extends the site column by one event carrying the current
// site. Called once per appended event; a no-op while the column is off.
func (t *Trace) noteSite() {
	if !t.sitesOn {
		return
	}
	t.appendSiteRun(1, t.curSite)
}

// appendSiteRun records n consecutive events at the given site, merging
// into the previous run when the site matches.
func (t *Trace) appendSiteRun(n, site int32) {
	if last := len(t.siteRuns) - 1; last >= 0 && t.siteRuns[last].site == site &&
		t.siteRuns[last].n <= math.MaxInt32-n {
		t.siteRuns[last].n += n
		return
	}
	t.siteRuns = append(room(t.chunked, t.siteRuns, &t.runChunks), siteRun{n: n, site: site})
}

// HasSites reports whether the trace carries a site column.
func (t *Trace) HasSites() bool { return t.sitesOn }

// Site returns the site table entry for id, or a zero Site for NoSite and
// out-of-range ids.
func (t *Trace) Site(id int32) Site {
	if id < 0 || int(id) >= len(t.Sites) {
		return Site{}
	}
	return t.Sites[id]
}

// SiteCursor walks the site column in lockstep with Events: the i-th Next
// call returns the site id of Events[i]. Events beyond the recorded runs
// (or any event of a column-less trace) yield NoSite.
type SiteCursor struct {
	runs []siteRun
	ri   int
	left int32
}

// SiteCursor returns a cursor positioned at the first event.
func (t *Trace) SiteCursor() SiteCursor {
	return SiteCursor{runs: t.siteRuns}
}

// Next returns the site id of the next event.
func (c *SiteCursor) Next() int32 {
	for c.left == 0 {
		if c.ri >= len(c.runs) {
			return NoSite
		}
		c.left = c.runs[c.ri].n
		c.ri++
	}
	c.left--
	return c.runs[c.ri-1].site
}

// WithoutSites returns a view of the trace with no site column, sharing
// the (read-only) events and side tables. A column-less trace returns
// itself. The view writes as CDT1 and simulates identically — it is the
// "attribution off" twin used for byte-compat output and overhead
// measurement.
func (t *Trace) WithoutSites() *Trace {
	if !t.sitesOn {
		return t
	}
	return &Trace{
		Name:       t.Name,
		Events:     t.Events,
		Allocs:     t.Allocs,
		LockSets:   t.LockSets,
		UnlockSets: t.UnlockSets,
		Refs:       t.Refs,
		Distinct:   t.Distinct,
		curSite:    NoSite,
		maxSeen:    t.maxPageSeen(),
		maxKnown:   true,
	}
}

// auditSiteRuns validates a decoded site column against the event stream.
func (t *Trace) auditSiteRuns() error {
	var total int64
	for i, r := range t.siteRuns {
		if r.n <= 0 {
			return fmt.Errorf("run %d has length %d", i, r.n)
		}
		if r.site != NoSite && (r.site < 0 || int(r.site) >= len(t.Sites)) {
			return fmt.Errorf("run %d references site %d of %d", i, r.site, len(t.Sites))
		}
		total += int64(r.n)
	}
	if total != int64(len(t.Events)) {
		return fmt.Errorf("runs cover %d events, trace has %d", total, len(t.Events))
	}
	return nil
}
