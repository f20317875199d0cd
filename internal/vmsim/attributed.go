// Fault attribution: RunAttributed replays a trace exactly like Run —
// same fault decisions, same space-time charging, same Result — while
// walking the trace's site side-band in lockstep and charging every
// reference, fault, eviction and directive action to the source site
// executing at that instant. The aggregates land in an attr.Ledger whose
// per-site sums equal the run totals by construction. This is a separate
// loop from runBlocks, so the un-instrumented hot path never touches the
// side-band; like the observed loop it is only entered on request.
package vmsim

import (
	"cdmm/internal/attr"
	"cdmm/internal/mem"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
)

// Eviction provenance classes, recorded per page so the fault that a
// past eviction causes can be charged back to the construct that evicted
// the page.
const (
	evictNone    = iota // never evicted (or provenance already consumed)
	evictReplace        // normal replacement / working-set expiry
	evictShrink         // evicted by a directive-driven allocation shrink
	evictRelease        // force-released from a LOCK under memory pressure
)

// setEvictHook installs fn on the first EvictObserver in pol's wrapper
// chain and returns an uninstaller (a no-op when none is found).
func setEvictHook(pol policy.Policy, fn func(mem.Page)) func() {
	eo, ok := policy.As[policy.EvictObserver](pol)
	if !ok {
		return func() {}
	}
	eo.SetEvictHook(fn)
	return func() { eo.SetEvictHook(nil) }
}

// RunAttributed is Run with fault attribution: the returned Result is
// identical to Run's, and the Ledger explains it site by site. The
// observer is used for progress delivery only (pass nil for none); event
// emission stays with RunObserved. A trace without a site side-band
// still works — everything lands in the ledger's unattributed bucket.
func RunAttributed(tr *trace.Trace, pol policy.Policy, o *obs.Observer) (Result, *attr.Ledger) {
	res, led, _ := RunAttributedSource(tr, pol, o) // in-memory cursors cannot fail
	return res, led
}

// RunAttributedSource is RunAttributed over any Source, streaming the
// reference and site columns in lockstep, so a chunked CDT3 file can be
// attributed without materializing the trace. The error is the cursor's,
// as in RunSource.
func RunAttributedSource(src trace.Source, pol policy.Policy, o *obs.Observer) (Result, *attr.Ledger, error) {
	pol.Reset()
	meta := src.Meta()
	hintPages(meta, pol)
	tb := src.Tables()
	led := attr.NewLedger(meta.Name, pol.Name(), tb.Sites)
	charger, _ := pol.(policy.Charger) // hoisted from policy.Charge
	prog := obs.ProgressOf(o)

	// Per-page provenance, dense by page number. Pages outside the
	// reference universe (possible in directive page sets) are skipped.
	npages := int(meta.MaxPage) + 1
	evictKind := make([]uint8, npages)
	evictSite := make([]int32, npages) // valid while evictKind != evictNone
	lockSite := make([]int32, npages)  // site of the active LOCK covering the page
	for i := range lockSite {
		lockSite[i] = trace.NoSite
	}
	lockCover := map[int][]mem.Page{} // LockSet.Site → currently covered pages

	// curSite tracks the site of the event being processed; the hooks
	// close over it so policy-internal transitions inherit the site of
	// the directive or reference that triggered them.
	curSite := trace.NoSite
	evPendKind := uint8(evictReplace)
	unhook := setEvictHook(pol, func(pg mem.Page) {
		led.Slot(curSite).Evictions++
		if int(pg) < npages {
			evictKind[pg] = evPendKind
			evictSite[pg] = curSite
		}
	})
	defer unhook()

	clearLocks := func() {
		for i := range lockSite {
			lockSite[i] = trace.NoSite
		}
		for k := range lockCover {
			delete(lockCover, k)
		}
	}

	if cd := policy.AsCD(pol); cd != nil {
		saved := cd.Hooks
		hooks := &policy.CDHooks{}
		if saved != nil {
			*hooks = *saved
		}
		prevRel, prevDeg := hooks.LockRelease, hooks.Degrade
		hooks.LockRelease = func(pg mem.Page) {
			if prevRel != nil {
				prevRel(pg)
			}
			owner := trace.NoSite
			if int(pg) < npages {
				owner = lockSite[pg]
				lockSite[pg] = trace.NoSite
				evictKind[pg] = evictRelease
				evictSite[pg] = owner
			}
			led.Slot(owner).LockReleases++
		}
		hooks.Degrade = func(reason string) {
			if prevDeg != nil {
				prevDeg(reason)
			}
			// A degraded policy drops every lock; stop crediting covers.
			clearLocks()
		}
		cd.Hooks = hooks
		defer func() { cd.Hooks = saved }()
	}

	var acc policy.BlockResult
	cur := src.Blocks(trace.CursorOpts{WithSites: true})
	defer cur.Close()
	refIdx := 0
	var b trace.Block
	for cur.Next(&b) {
		for i, pg := range b.Pages {
			site := trace.NoSite
			if b.Sites != nil {
				site = b.Sites[i]
			}
			curSite = site
			evPendKind = evictReplace
			fault := pol.Ref(pg)
			refIdx++
			if prog != nil && refIdx%progressChunk == 0 {
				prog(refIdx, meta.Refs, acc.VTime)
			}
			vt0 := acc.VTime
			r := pol.Resident()
			m := r
			if charger != nil {
				m = charger.Charged()
			}
			acc.Add(fault, r, m)
			st := led.Slot(site)
			if fault {
				st.Faults++
				led.FaultLog = append(led.FaultLog, attr.FaultPoint{VT: acc.VTime, Site: site, Page: int32(pg)})
				if int(pg) < npages {
					switch evictKind[pg] {
					case evictShrink:
						led.Slot(evictSite[pg]).ShrinkFaults++
					case evictRelease:
						led.Slot(evictSite[pg]).ReleaseFaults++
					}
					evictKind[pg] = evictNone
				}
			} else if int(pg) < npages && lockSite[pg] != trace.NoSite {
				led.Slot(lockSite[pg]).LockedHits++
			}
			st.Refs++
			st.VTime += acc.VTime - vt0
			st.MemSum += float64(m)
		}
		if !b.HasDir {
			continue
		}
		site := b.DirSite
		curSite = site
		switch e := b.Dir; e.Kind {
		case trace.EvAlloc:
			// Evictions during the directive are shrink evictions: the
			// allocation ceiling dropped and pushed pages out early.
			evPendKind = evictShrink
			led.Slot(site).Allocs++
			pol.Alloc(tb.Alloc(e))
			evPendKind = evictReplace
		case trace.EvLock:
			ls := tb.Lock(e)
			led.Slot(site).Locks++
			// A re-executed lock site replaces its previous cover.
			for _, pg := range lockCover[ls.Site] {
				if int(pg) < npages {
					lockSite[pg] = trace.NoSite
				}
			}
			lockCover[ls.Site] = append(lockCover[ls.Site][:0], ls.Pages...)
			for _, pg := range ls.Pages {
				if int(pg) < npages {
					lockSite[pg] = site
				}
			}
			pol.Lock(ls)
		case trace.EvUnlock:
			pages := tb.Unlock(e)
			led.Slot(site).Unlocks++
			for _, pg := range pages {
				if int(pg) < npages {
					lockSite[pg] = trace.NoSite
				}
			}
			pol.Unlock(pages)
		}
	}
	if prog != nil {
		prog(refIdx, meta.Refs, acc.VTime)
	}

	res := Finalize(pol, meta.Refs, &acc)
	led.Refs = res.Refs
	led.Faults = res.Faults
	led.MemSum = res.MemSum
	led.VirtualTime = res.VirtualTime
	return res, led, cur.Err()
}
