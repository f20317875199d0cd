// Observability integration: RunObserved drives a policy over a trace
// while emitting structured events (fault/res/alloc/phase/lock/unlock/
// swap) with virtual-time stamps into an obs.Tracer and updating an
// obs.Registry. The event stream is exact: obs.Replay over it
// reconstructs the run's fault count and memory sum bit-for-bit (see
// TestEventStreamMatchesResult), so a saved JSONL file audits the
// printed Result.
package vmsim

import (
	"cdmm/internal/mem"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
)

// RunObserved is Run with an explicit observer. A nil o (or one that
// observes nothing) runs the bare un-instrumented loop, so
// observability-off costs nothing. An observer whose Gate is closed (or
// that carries only a Progress callback) takes the chunked fast path:
// full hot-path speed with periodic progress delivery — the
// disabled-path pattern the live telemetry server relies on when no
// client is connected.
func RunObserved(tr *trace.Trace, pol policy.Policy, o *obs.Observer) Result {
	res, _ := RunSource(tr, pol, o) // in-memory cursors cannot fail
	return res
}

// runInstrumented is the observed simulation loop. It accumulates the
// exact same Result as the block-stepped fast path (same fault decisions,
// same space-time charging) while streaming events and metrics. Every
// reference takes the per-event Policy.Ref path here — instrumentation
// needs per-reference visibility — which doubles as the differential
// oracle the block-stepping tests compare against.
func runInstrumented(src trace.Source, pol policy.Policy, o *obs.Observer) (Result, error) {
	pol.Reset()
	meta := src.Meta()
	hintPages(meta, pol)
	tb := src.Tables()
	name := pol.Name()
	charger, _ := pol.(policy.Charger) // hoisted from policy.Charge
	var acc policy.BlockResult

	var (
		cRefs, cFaults, cSwapSig, cLockRel *obs.Counter
		hInter, hRes, hLock                *obs.Histogram
	)
	if reg := o.Metrics; reg != nil {
		cRefs = reg.Counter("refs")
		cFaults = reg.Counter("faults")
		cSwapSig = reg.Counter("swap_signals")
		cLockRel = reg.Counter("lock_releases")
		hInter = reg.Histogram("fault_interarrival_vtime", obs.ExpBounds(1, 4, 12))
		hRes = reg.Histogram("resident_pages", obs.LinearBounds(2, 2, 16))
		hLock = reg.Histogram("lock_hold_vtime", obs.ExpBounds(1, 4, 12))
	}

	// lockAt tracks when each page was locked (directive-level, virtual
	// time) to measure lock-hold durations.
	lockAt := map[mem.Page]int64{}
	closeHold := func(pg mem.Page) {
		if t0, ok := lockAt[pg]; ok {
			if hLock != nil {
				hLock.Observe(float64(acc.VTime - t0))
			}
			delete(lockAt, pg)
		}
	}

	// CD hook points stamp policy-internal transitions with the exact
	// virtual time of the directive that caused them.
	if cd := policy.AsCD(pol); cd != nil {
		saved := cd.Hooks
		cd.Hooks = &policy.CDHooks{
			AllocChange: func(prev, next int) {
				o.Emit(obs.Event{Kind: obs.KindPhase, T: acc.VTime, Prev: prev, Alloc: next})
			},
			SwapSignal: func() {
				if cSwapSig != nil {
					cSwapSig.Inc()
				}
				o.Emit(obs.Event{Kind: obs.KindSwap, T: acc.VTime, Why: "signal"})
			},
			LockRelease: func(pg mem.Page) {
				if cLockRel != nil {
					cLockRel.Inc()
				}
				o.Emit(obs.Event{Kind: obs.KindLockRel, T: acc.VTime, Page: int(pg)})
				closeHold(pg)
			},
			Degrade: func(reason string) {
				if o.Metrics != nil {
					o.Metrics.Counter("degradations").Inc()
				}
				o.Emit(obs.Event{Kind: obs.KindDegrade, T: acc.VTime, Why: reason})
			},
		}
		defer func() { cd.Hooks = saved }()
	}

	o.Emit(obs.Event{Kind: obs.KindRun, Label: name, Refs: meta.Refs})

	// The instrumented loop is already paying per-reference work, so
	// progress rides on a cheap counter check instead of a capped block
	// size; done/total are in references here.
	prog := obs.ProgressOf(o)

	cur := src.Blocks(trace.CursorOpts{})
	defer cur.Close()

	var lastFaultVT int64
	prevCharge := -1
	refIdx := 0
	var b trace.Block
	for cur.Next(&b) {
		for _, pg := range b.Pages {
			fault := pol.Ref(pg)
			refIdx++
			if prog != nil && refIdx%progressChunk == 0 {
				prog(refIdx, meta.Refs, acc.VTime)
			}
			r := pol.Resident()
			m := r
			if charger != nil {
				m = charger.Charged()
			}
			acc.Add(fault, r, m)
			if cRefs != nil {
				cRefs.Inc()
				hRes.Observe(float64(m))
			}
			if fault {
				if cFaults != nil {
					cFaults.Inc()
					hInter.Observe(float64(acc.VTime - lastFaultVT))
				}
				o.Emit(obs.Event{Kind: obs.KindFault, T: acc.VTime, I: refIdx, Page: int(pg), Res: m})
				lastFaultVT = acc.VTime
			}
			if m != prevCharge {
				o.Emit(obs.Event{Kind: obs.KindRes, T: acc.VTime, I: refIdx, Res: m})
				prevCharge = m
			}
		}
		if !b.HasDir {
			continue
		}
		switch e := b.Dir; e.Kind {
		case trace.EvAlloc:
			d := tb.Alloc(e)
			o.Emit(obs.Event{Kind: obs.KindAlloc, T: acc.VTime, Label: d.Label})
			pol.Alloc(d)
		case trace.EvLock:
			ls := tb.Lock(e)
			o.Emit(obs.Event{Kind: obs.KindLock, T: acc.VTime, PJ: ls.PJ, Site: ls.Site, Pages: len(ls.Pages)})
			for _, pg := range ls.Pages {
				if _, ok := lockAt[pg]; !ok {
					lockAt[pg] = acc.VTime
				}
			}
			pol.Lock(ls)
		case trace.EvUnlock:
			pages := tb.Unlock(e)
			o.Emit(obs.Event{Kind: obs.KindUnlock, T: acc.VTime, Pages: len(pages)})
			for _, pg := range pages {
				closeHold(pg)
			}
			pol.Unlock(pages)
		}
	}
	res := Finalize(pol, meta.Refs, &acc)
	if prog != nil {
		prog(refIdx, meta.Refs, res.VirtualTime)
	}
	o.Emit(obs.Event{Kind: obs.KindEnd, T: res.VirtualTime, Refs: res.Refs, Faults: res.Faults, Mem: res.MEM()})
	return res, cur.Err()
}
