// Package vmsim drives memory-management policies over page-reference
// traces and accumulates the paper's three performance indexes: the number
// of page faults (PF), the average memory allocated to the program (MEM),
// and the space-time cost (ST), with page-fault service time of 2000
// memory references (§5).
//
// Virtual time advances one unit per reference plus FaultService units per
// fault; the space-time integral accumulates resident-set-size × elapsed
// virtual time, so holding a large resident set across a fault is charged
// 2000× more than across a hit — exactly the trade-off the paper's ST
// index captures.
package vmsim

import (
	"fmt"
	"sync"

	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
)

// Result holds the performance indexes of one simulation run.
type Result struct {
	Policy string
	Refs   int
	Faults int
	// MemSum is Σ resident-set-size sampled after every reference.
	MemSum float64
	// SpaceTime is the pages × virtual-time integral (the paper's ST).
	SpaceTime float64
	// VirtualTime is Refs + Faults × FaultService.
	VirtualTime int64
	// SwapSignals and LockReleases are CD-specific counters (0 otherwise).
	SwapSignals  int
	LockReleases int
	// MaxResident is the peak resident-set size.
	MaxResident int
	// Degraded reports that a CD policy hit a directive-contract
	// violation and served the rest of the run from its WS fallback;
	// DegradedReason is the first violation observed.
	Degraded       bool
	DegradedReason string
}

// MEM returns the average memory allocated, in pages, averaged over
// references.
func (r Result) MEM() float64 {
	if r.Refs == 0 {
		return 0
	}
	return r.MemSum / float64(r.Refs)
}

// ST returns the space-time cost.
func (r Result) ST() float64 { return r.SpaceTime }

// FaultRate returns faults per thousand references.
func (r Result) FaultRate() float64 {
	if r.Refs == 0 {
		return 0
	}
	return 1000 * float64(r.Faults) / float64(r.Refs)
}

// String summarizes the result. The CD-specific swap-signal and forced
// lock-release counters are included when nonzero.
func (r Result) String() string {
	s := fmt.Sprintf("%s: PF=%d MEM=%.2f ST=%.3g (R=%d)", r.Policy, r.Faults, r.MEM(), r.ST(), r.Refs)
	if r.SwapSignals > 0 {
		s += fmt.Sprintf(" swap-signals=%d", r.SwapSignals)
	}
	if r.LockReleases > 0 {
		s += fmt.Sprintf(" lock-releases=%d", r.LockReleases)
	}
	if r.Degraded {
		s += fmt.Sprintf(" DEGRADED(%s)", r.DegradedReason)
	}
	return s
}

// Run replays the trace under the policy. The policy is Reset first, so a
// single policy value can be reused across runs. This is the bare fast
// path; RunObserved attaches an observer.
//
// Run and RunObserved are safe for concurrent use with DISTINCT policy
// values over the same (immutable) trace: the simulation mutates only
// the policy and its own Result, never the trace. Concurrent runs that
// share one policy value race on its state; give each goroutine its own.
// Observed parallel runs need per-run observers (as the engine package
// hands out) so their event streams do not interleave.
func Run(tr *trace.Trace, pol policy.Policy) Result {
	return RunObserved(tr, pol, nil)
}

// RunSource replays any reference-stream Source — an in-memory trace or
// a chunked CDT3 file — under the policy, streaming block by block in
// O(chunk) memory. Observation works as in RunObserved: a nil o observes
// nothing. The error is the cursor's: an on-disk source can fail
// mid-stream (truncation, corruption, IO), in which case the Result is
// valid up to the failure point. In-memory sources never fail.
func RunSource(src trace.Source, pol policy.Policy, o *obs.Observer) (Result, error) {
	if !o.Enabled() {
		return runBlocks(src, pol, obs.ProgressOf(o))
	}
	return runInstrumented(src, pol, o)
}

// Finalize builds a run's Result from the indexes accumulated over refs
// references, adding the CD-specific counters when pol is (a wrapper
// around) a CD policy. Every replay loop, and the sweep plane's grouped
// pass, ends here.
func Finalize(pol policy.Policy, refs int, acc *policy.BlockResult) Result {
	res := Result{
		Policy:      pol.Name(),
		Refs:        refs,
		Faults:      acc.Faults,
		MaxResident: acc.MaxResident,
		VirtualTime: acc.VTime,
		SpaceTime:   float64(acc.SpaceTime),
		MemSum:      float64(acc.MemSum),
	}
	if cd := policy.AsCD(pol); cd != nil {
		res.SwapSignals = cd.SwapSignals
		res.LockReleases = cd.LockReleases
		res.Degraded = cd.Degraded()
		res.DegradedReason = cd.DegradedReason()
	}
	return res
}

// hintPages pre-sizes a policy's dense page-indexed state from the
// stream's page universe, seeing through wrappers, so the first replay
// assigns page slots without growth reallocations. Meta is O(1) for
// every source, so the hint never materializes trace views.
func hintPages(meta trace.Meta, pol policy.Policy) {
	if h, ok := policy.As[policy.PageHinter](pol); ok {
		h.HintPages(meta.MaxPage, meta.Distinct)
	}
}

// progressChunk is how many trace events the fast path executes between
// progress callbacks. The chunk is large enough that the outer loop's
// bookkeeping amortizes to nothing (a chunk is a few hundred microseconds
// of simulation) while still giving a live /progress endpoint dozens of
// updates per second on big traces.
const progressChunk = 1 << 15

// blockResultPool recycles the accumulator runBlocks hands to
// BlockStepper policies. Passing &out through the interface makes the
// compiler heap-allocate it, so without the pool every Run costs one
// allocation even though the replay itself is allocation-free.
var blockResultPool = sync.Pool{New: func() any { return new(policy.BlockResult) }}

// runBlocks is the un-instrumented simulation loop, streaming the source
// block by block with an optional periodic progress callback. Policies
// implementing policy.BlockStepper replay each directive-free run of
// references in one call, so loop-invariant work (interface dispatch,
// fixed-partition charges, degraded checks) hoists out of the per-
// reference path; other policies (wrappers) take the per-reference
// policy.StepRefs inside the same block loop.
//
// prog receives the event index reached (out of Meta().Events) and the
// virtual time; a nil prog leaves blocks at the source's natural size, a
// non-nil one caps them at progressChunk so callbacks fire at a steady
// cadence.
func runBlocks(src trace.Source, pol policy.Policy, prog obs.ProgressFunc) (Result, error) {
	pol.Reset()
	meta := src.Meta()
	hintPages(meta, pol)
	tb := src.Tables()
	bst, isBlock := pol.(policy.BlockStepper)

	opts := trace.CursorOpts{}
	if prog != nil {
		opts.MaxBlock = progressChunk
	}

	// The accumulator is fed to StepBlock through the BlockStepper
	// interface, which forces it to the heap; pooling it keeps the
	// steady-state replay at zero allocations.
	out := blockResultPool.Get().(*policy.BlockResult)
	*out = policy.BlockResult{}
	defer blockResultPool.Put(out)
	done := 0 // events consumed, for progress reporting
	step := func(b trace.Block) bool {
		if isBlock {
			bst.StepBlock(b.Pages, out)
		} else {
			policy.StepRefs(pol, b.Pages, out)
		}
		if b.HasDir {
			policy.ApplyDir(pol, tb, b.Dir)
		}
		if prog != nil {
			done += b.Events()
			prog(done, meta.Events, out.VTime)
		}
		return true
	}

	var walkErr error
	if tr, ok := src.(*trace.Trace); ok {
		// In-memory traces walk with the cursor on the stack: the whole
		// replay allocates nothing after the policy's Reset.
		walkErr = tr.WalkBlocks(opts, step)
	} else {
		cur := src.Blocks(opts)
		var b trace.Block
		for cur.Next(&b) {
			step(b)
		}
		walkErr = cur.Err()
		cur.Close()
	}
	if prog != nil && done < meta.Events {
		// The stream ended early (cursor error): report where it stopped.
		prog(done, meta.Events, out.VTime)
	}
	return Finalize(pol, meta.Refs, out), walkErr
}

// SweepLRU runs LRU at every allocation in [1, maxFrames] and returns the
// results indexed by allocation-1. The paper varies the LRU allocation
// between 1 and V.
func SweepLRU(tr *trace.Trace, maxFrames int) []Result {
	refs := tr.RefsOnly()
	out := make([]Result, maxFrames)
	for m := 1; m <= maxFrames; m++ {
		out[m-1] = Run(refs, policy.NewLRU(m))
	}
	return out
}

// SweepWS runs the Working Set policy at each window size in taus.
func SweepWS(tr *trace.Trace, taus []int) []Result {
	refs := tr.RefsOnly()
	out := make([]Result, len(taus))
	for i, tau := range taus {
		out[i] = Run(refs, policy.NewWS(tau))
	}
	return out
}

// DefaultTaus builds the WS window-size sweep for a trace of length R:
// a geometric ladder from 1 to R covering the interesting range densely.
func DefaultTaus(refLen int) []int {
	var taus []int
	seen := map[int]bool{}
	add := func(t int) {
		if t >= 1 && t <= refLen && !seen[t] {
			seen[t] = true
			taus = append(taus, t)
		}
	}
	for t := 1; t <= refLen; {
		add(t)
		// ~12% steps give a dense enough ladder to match MEM targets.
		nt := t + t/8
		if nt == t {
			nt = t + 1
		}
		t = nt
	}
	return taus
}
