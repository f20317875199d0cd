package policy

import "cdmm/internal/mem"

// BlockResult accumulates the per-reference indexes of a replay. Add
// accounts one reference and StepBlock adds a whole block (max-merging
// MaxResident), so one zeroed BlockResult threads through a whole replay.
type BlockResult struct {
	// Faults is the number of faulting references.
	Faults int
	// MaxResident is the peak resident-set size observed.
	MaxResident int
	// VTime is Σ dt: one unit per reference plus FaultService per fault.
	VTime int64
	// MemSum is Σ charged, sampled after every reference.
	MemSum int64
	// SpaceTime is Σ charged × dt.
	SpaceTime int64
}

// Add accounts one reference by the paper's §5 rule: the reference
// advances virtual time by dt = 1, plus FaultService when it faulted;
// the space-time charge is sampled into MemSum and integrated over dt
// into SpaceTime; the resident count feeds MaxResident. The sums are
// int64: every charge and time step is an integer, so they stay exact
// where float64 sums would start rounding past 2^53.
func (r *BlockResult) Add(fault bool, resident, charged int) {
	dt := int64(1)
	if fault {
		r.Faults++
		dt += FaultService
	}
	if resident > r.MaxResident {
		r.MaxResident = resident
	}
	r.VTime += dt
	r.SpaceTime += int64(charged) * dt
	r.MemSum += int64(charged)
}

// BlockStepper is the batched replay interface: StepBlock replays a run
// of consecutive page references — a directive-free block of the trace —
// and accumulates the indexes into out. It must be exactly equivalent to
// StepRefs over the same block: same faults, same eviction sequence,
// same MemSum/SpaceTime/VTime, same running MaxResident. Batching exists
// so a policy can hoist loop-invariant work (interface dispatch,
// constant charges, degraded checks) out of the per-reference path.
type BlockStepper interface {
	StepBlock(pages []mem.Page, out *BlockResult)
}

// StepRefs replays pages through pol one reference at a time — Ref, then
// Add with the post-reference Resident and Charge. It is the block step
// of policies that do not implement BlockStepper, such as wrappers like
// chaos.Pressured.
func StepRefs(pol Policy, pages []mem.Page, out *BlockResult) {
	charger, _ := pol.(Charger) // hoisted from Charge
	for _, pg := range pages {
		fault := pol.Ref(pg)
		r := pol.Resident()
		m := r
		if charger != nil {
			m = charger.Charged()
		}
		out.Add(fault, r, m)
	}
}

// fixedCharge folds a block's accumulation for fixed-partition policies
// (LRU, FIFO, OPT): the charge is the whole partition for every
// reference, so MemSum and SpaceTime are block-level products rather
// than per-ref sums.
func fixedCharge(out *BlockResult, frames, refs, faults, endResident int) {
	vt := int64(refs) + int64(faults)*FaultService
	out.Faults += faults
	out.VTime += vt
	out.MemSum += int64(frames) * int64(refs)
	out.SpaceTime += int64(frames) * vt
	if endResident > out.MaxResident {
		out.MaxResident = endResident
	}
}

// StepBlock implements BlockStepper. Within a directive-free block LRU's
// resident count never shrinks (a fault at capacity evicts one page and
// inserts one), so the end-of-block count is the block's maximum and the
// fixed charge folds into two multiplications.
func (p *LRU) StepBlock(pages []mem.Page, out *BlockResult) {
	l := p.list
	faults := 0
	for _, pg := range pages {
		if s := l.lookupResident(pg); s >= 0 {
			l.touchSlot(s)
			continue
		}
		p.refMiss(pg)
		faults++
	}
	fixedCharge(out, p.frames, len(pages), faults, l.n)
}

// StepBlock implements BlockStepper. Like LRU, FIFO's resident count is
// nondecreasing within a block and the charge is the fixed partition.
func (p *FIFO) StepBlock(pages []mem.Page, out *BlockResult) {
	faults := 0
	for _, pg := range pages {
		s := p.slotOf(pg)
		if p.in[s] {
			continue
		}
		p.refMiss(s)
		faults++
	}
	fixedCharge(out, p.frames, len(pages), faults, p.qlen)
}

// StepBlock implements BlockStepper. WS's resident set both grows and
// shrinks per reference, so the indexes accumulate per reference; the
// batching fuses Ref's callees (slot lookup, window push, expiry) into
// one loop with the clock, resident count and ring geometry held in
// locals, keeping the per-step order — membership test, stamp, push,
// expire — exactly as Ref produces it. Only the dense-table slot hit is
// inlined; sparse or unseen pages take the shared slotOf path (reloading
// the possibly-regrown slot state), and a full ring syncs the locals and
// defers to pushWin to grow. Expiry or eviction observers fall back to
// the per-reference loop so hooks fire mid-step in Ref's exact order and
// may safely touch the policy.
func (p *WS) StepBlock(pages []mem.Page, out *BlockResult) {
	if p.onExpire != nil || p.onEvict != nil {
		p.stepBlockObserved(pages, out)
		return
	}
	var faults int
	var vt, memSum, spaceTime int64
	maxRes := out.MaxResident
	seenAt := p.seenAt
	dense := p.idx.dense
	win := p.win
	mask := len(win) - 1
	winHead, winLen := p.winHead, p.winLen
	now, resident, tau := p.now, p.resident, p.tau
	for _, pg := range pages {
		now++
		s := int32(-1)
		if uint64(pg) < uint64(len(dense)) {
			s = dense[pg] - 1
		}
		if s < 0 {
			s = p.slotOf(pg)
			seenAt = p.seenAt // slotOf grows the slot state
			dense = p.idx.dense
		}
		dt := int64(1)
		if seenAt[s] == 0 {
			resident++
			faults++
			dt += FaultService
		}
		seenAt[s] = now + 1
		if winLen == len(win) {
			p.winHead, p.winLen = winHead, winLen
			p.pushWin(now, s)
			win, winHead, winLen = p.win, p.winHead, p.winLen
			mask = len(win) - 1
		} else {
			win[(winHead+winLen)&mask] = wsRecord{t: now, slot: s}
			winLen++
		}
		cutoff := now - tau
		for winLen > 0 {
			rec := win[winHead]
			if rec.t > cutoff {
				break
			}
			winHead = (winHead + 1) & mask
			winLen--
			if seenAt[rec.slot] == rec.t+1 {
				seenAt[rec.slot] = 0
				resident--
			}
		}
		if resident > maxRes {
			maxRes = resident
		}
		r := int64(resident)
		vt += dt
		spaceTime += r * dt
		memSum += r
	}
	p.now, p.resident = now, resident
	p.winHead, p.winLen = winHead, winLen
	out.Faults += faults
	out.VTime += vt
	out.MemSum += memSum
	out.SpaceTime += spaceTime
	out.MaxResident = maxRes
}

// stepBlockObserved is WS block stepping with expiry/eviction hooks
// installed: per-reference Ref calls, so hooks observe every state
// transition exactly as single stepping would produce it.
func (p *WS) stepBlockObserved(pages []mem.Page, out *BlockResult) {
	for _, pg := range pages {
		fault := p.Ref(pg)
		out.Add(fault, p.resident, p.resident)
	}
}

// StepBlock implements BlockStepper. DWS is charged its working set plus
// the pages it holds back from expiry.
func (p *DWS) StepBlock(pages []mem.Page, out *BlockResult) {
	for _, pg := range pages {
		fault := p.Ref(pg)
		r := p.ws.resident + p.heldCount
		out.Add(fault, r, r)
	}
}

// StepBlock implements BlockStepper. PFF resizes its resident set at
// fault times, so each reference is accounted on its own, charged the
// resident set.
func (p *PFF) StepBlock(pages []mem.Page, out *BlockResult) {
	for _, pg := range pages {
		fault := p.Ref(pg)
		out.Add(fault, p.nres, p.nres)
	}
}

// StepBlock implements BlockStepper. SWS resizes its resident set at
// sample times and is charged the resident set.
func (p *SWS) StepBlock(pages []mem.Page, out *BlockResult) {
	for _, pg := range pages {
		fault := p.Ref(pg)
		out.Add(fault, p.nres, p.nres)
	}
}

// StepBlock implements BlockStepper. VSWS resizes its resident set at
// sample times and is charged the resident set.
func (p *VSWS) StepBlock(pages []mem.Page, out *BlockResult) {
	for _, pg := range pages {
		fault := p.Ref(pg)
		out.Add(fault, p.nres, p.nres)
	}
}

// StepBlock implements BlockStepper. Like LRU, OPT's resident count is
// nondecreasing within a block (a fault at capacity evicts one page and
// inserts one) and the charge is the fixed partition.
func (p *OPT) StepBlock(pages []mem.Page, out *BlockResult) {
	faults := 0
	for _, pg := range pages {
		if p.Ref(pg) {
			faults++
		}
	}
	fixedCharge(out, p.frames, len(pages), faults, len(p.resident))
}

// StepBlock implements BlockStepper. CD degrades only on directive
// events, never inside a reference run, so the degraded check hoists out
// of the loop: a degraded policy hands the whole block to its WS
// fallback, and a healthy one runs the local-LRU path with the check
// paid once per block. The charge is the local resident count, which
// changes only on misses, so hits accumulate as flat segments — one
// multiply per fault-to-fault run instead of three per reference — and
// the nondecreasing count makes the end-of-block value the block max.
func (p *CD) StepBlock(pages []mem.Page, out *BlockResult) {
	p.acquire("StepBlock")
	defer p.release()
	if p.degraded {
		p.fallback.StepBlock(pages, out)
		return
	}
	if len(pages) == 0 {
		return
	}
	l := p.list
	var faults int
	var vt, memSum, spaceTime int64
	n := int64(l.n) // resident count of the current flat segment
	var hits int64  // references accumulated at count n
	for _, pg := range pages {
		if s := l.lookupResident(pg); s >= 0 {
			l.touchSlot(s)
			hits++
			continue
		}
		vt += hits
		spaceTime += n * hits
		memSum += n * hits
		hits = 0
		p.refMiss(pg)
		faults++
		n = int64(l.n)
		dt := int64(1 + FaultService)
		vt += dt
		spaceTime += n * dt
		memSum += n
	}
	vt += hits
	spaceTime += n * hits
	memSum += n * hits
	out.Faults += faults
	out.VTime += vt
	out.MemSum += memSum
	out.SpaceTime += spaceTime
	if l.n > out.MaxResident {
		out.MaxResident = l.n
	}
}

var (
	_ BlockStepper = (*LRU)(nil)
	_ BlockStepper = (*FIFO)(nil)
	_ BlockStepper = (*WS)(nil)
	_ BlockStepper = (*DWS)(nil)
	_ BlockStepper = (*CD)(nil)
	_ BlockStepper = (*PFF)(nil)
	_ BlockStepper = (*SWS)(nil)
	_ BlockStepper = (*VSWS)(nil)
	_ BlockStepper = (*OPT)(nil)
)
