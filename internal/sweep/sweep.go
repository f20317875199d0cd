// Package sweep is the one-pass curve plane: whole miss-ratio and
// working-set curves from a single traversal of a reference stream,
// where per-cell simulation would replay the trace once per curve point.
//
// Three engines ride the block-stepped trace plane (trace.Source):
//
//   - LRUCurve: Mattson's stack algorithm over a Fenwick tree of
//     reference positions. One traversal yields the exact reuse-distance
//     histogram, hence PF/MEM/ST for *every* LRU allocation m in [1, V].
//     Periodic position compression bounds the tree at O(V) regardless
//     of stream length, so multi-GB CDT3 files sweep in bounded memory.
//
//   - WS: Denning's windowed recurrence. One pass builds the
//     inter-reference-interval histogram in O(√(V·R)) memory (PF(τ) and
//     MemSum(τ) for all τ at once); a second event-driven pass steps an
//     arbitrary τ grid in lockstep — each reference schedules one lazy
//     expiry chain that walks the grid as the page ages — producing the
//     exact per-τ Result (including the fault-coupled space-time
//     integral) in O(R + Σ_τ activity) instead of O(R × |grid|). The
//     minimum-ST window over the τ ladder takes at most two such passes,
//     pruned by lower bounds on ST.
//
//   - Multi: a lockstep grouped pass for policies with no closed form
//     (FIFO capacity grids, CD detune grids). One cursor feeds every
//     policy's StepBlock per block, so the stream decode and directive
//     side-band resolution are shared across the whole grid while each
//     policy's per-reference decisions stay exactly those of a solo
//     replay.
//
// Every engine is differentially tested against per-cell vmsim replay:
// here on random traces, and in the engine package's oracle test on the
// nine workloads, for every curve artifact the paper's tables read. The
// per-cell path lives only in those tests.
package sweep

import (
	"cdmm/internal/mem"
	"cdmm/internal/trace"
)

// walkRefs streams the source's reference string through fn block by
// block, ignoring directive events (the closed-form engines model
// directive-blind policies, matching their per-cell oracles which replay
// the directive-free view).
func walkRefs(src trace.Source, fn func(pages []mem.Page)) error {
	cur := src.Blocks(trace.CursorOpts{})
	defer cur.Close()
	var b trace.Block
	for cur.Next(&b) {
		fn(b.Pages)
	}
	return cur.Err()
}
