package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"cdmm/internal/mem"
)

// Block-stepping differential: StepBlock must be *exactly* the per-
// reference StepRefs fallback over the block — same faults, same
// eviction sequence, same MemSum/SpaceTime/VTime, same running
// MaxResident — and both must match the map-based oracle accounted by
// hand through the generic Ref/Resident/Charge path. The streams reuse
// the randomized op generator of differential_test.go (locality + wild
// sparse pages + CD directives) and the blocks are cut at every
// directive and at randomized caps, so short blocks, directive-only
// blocks and cap-split runs are all hit.

// accumGeneric advances out by one reference through the generic
// three-call path, with the §5 accounting written out independently of
// BlockResult.Add.
func accumGeneric(p Policy, pg mem.Page, out *BlockResult) {
	fault := p.Ref(pg)
	dt := int64(1)
	if fault {
		out.Faults++
		dt += FaultService
	}
	if r := p.Resident(); r > out.MaxResident {
		out.MaxResident = r
	}
	m := Charge(p)
	out.VTime += dt
	out.SpaceTime += int64(m) * dt
	out.MemSum += int64(m)
}

// collectEvictions installs an eviction recorder when the policy
// observes evictions; the returned slice pointer fills as the run goes.
func collectEvictions(p Policy) *[]mem.Page {
	seq := &[]mem.Page{}
	if eo, ok := p.(EvictObserver); ok {
		eo.SetEvictHook(func(pg mem.Page) { *seq = append(*seq, pg) })
	}
	return seq
}

// runBlockDiff replays ops through four instances — block-stepped with
// an eviction recorder, block-stepped bare (no hooks, so policies with
// an observer-free fast path take it), single-stepped through the
// StepRefs fallback, and the map oracle — and asserts identical indexes
// and identical eviction sequences. maxBlock caps the reference runs handed to StepBlock (0 =
// cut only at directives), mirroring CursorOpts.MaxBlock.
func runBlockDiff(t *testing.T, blocked, bare, stepped, oracle Policy, ops []diffOp, maxBlock int, tag string) {
	t.Helper()
	bst := blocked.(BlockStepper)
	bareBst := bare.(BlockStepper)
	evB := collectEvictions(blocked)
	evS := collectEvictions(stepped)

	var rb, rbb, rs, ro BlockResult
	var pages []mem.Page
	flush := func() {
		if len(pages) == 0 {
			return
		}
		bst.StepBlock(pages, &rb)
		bareBst.StepBlock(pages, &rbb)
		pages = pages[:0]
	}
	for _, op := range ops {
		switch op.kind {
		case opRef:
			pages = append(pages, op.page)
			if maxBlock > 0 && len(pages) >= maxBlock {
				flush()
			}
			StepRefs(stepped, []mem.Page{op.page}, &rs)
			accumGeneric(oracle, op.page, &ro)
		case opAlloc:
			flush()
			blocked.Alloc(op.alloc)
			bare.Alloc(op.alloc)
			stepped.Alloc(op.alloc)
			oracle.Alloc(op.alloc)
		case opLock:
			flush()
			blocked.Lock(op.lock)
			bare.Lock(op.lock)
			stepped.Lock(op.lock)
			oracle.Lock(op.lock)
		case opUnlock:
			flush()
			blocked.Unlock(op.unlock)
			bare.Unlock(op.unlock)
			stepped.Unlock(op.unlock)
			oracle.Unlock(op.unlock)
		}
	}
	flush()

	if rb != rs {
		t.Fatalf("%s: StepBlock %+v != StepRefs %+v", tag, rb, rs)
	}
	if rb != ro {
		t.Fatalf("%s: StepBlock %+v != oracle %+v", tag, rb, ro)
	}
	if rbb != rb {
		t.Fatalf("%s: unhooked StepBlock %+v != hooked StepBlock %+v", tag, rbb, rb)
	}
	if len(*evB) != len(*evS) {
		t.Fatalf("%s: eviction counts differ: block=%d step=%d", tag, len(*evB), len(*evS))
	}
	for i := range *evB {
		if (*evB)[i] != (*evS)[i] {
			t.Fatalf("%s: eviction %d differs: block=%d step=%d", tag, i, (*evB)[i], (*evS)[i])
		}
	}
}

// TestBlockStepCoversAllSteppers guards the hot path: every policy in
// the differential suite must block-step, or the simulator silently
// replays it through the per-reference fallback.
func TestBlockStepCoversAllSteppers(t *testing.T) {
	for _, tc := range diffCases() {
		if _, ok := tc.dense().(BlockStepper); !ok {
			t.Errorf("%s: does not implement BlockStepper", tc.name)
		}
	}
}

// TestBlockStepMatchesStepAndOracle is the core randomized differential
// across seeds and block caps, including the degenerate one-reference
// blocks and directive-heavy CD streams.
func TestBlockStepMatchesStepAndOracle(t *testing.T) {
	for _, tc := range diffCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				r := rand.New(rand.NewSource(seed))
				pages := genPages(r, 20+r.Intn(40))
				ops := genOps(r, 3000, pages, tc.directives)
				for _, maxBlock := range []int{0, 1, 7, 256} {
					runBlockDiff(t, tc.dense(), tc.dense(), tc.dense(), tc.oracle(), ops, maxBlock,
						fmt.Sprintf("seed=%d/max=%d", seed, maxBlock))
				}
			}
		})
	}
}

// TestBlockStepResetReuse replays stream A block-stepped, Resets, and
// replays stream B — the engine's policy-reuse pattern — against fresh
// StepRefs and oracle twins.
func TestBlockStepResetReuse(t *testing.T) {
	for _, tc := range diffCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(99))
			opsA := genOps(r, 2000, genPages(r, 30), tc.directives)
			opsB := genOps(r, 2000, genPages(r, 50), tc.directives)

			used := tc.dense()
			usedBst := used.(BlockStepper)
			var warm BlockResult
			for _, op := range opsA {
				if op.kind == opRef {
					usedBst.StepBlock([]mem.Page{op.page}, &warm)
				}
			}
			used.Reset()
			runBlockDiff(t, used, tc.dense(), tc.dense(), tc.oracle(), opsB, 64, "B-after-Reset")
		})
	}
}

// TestBlockStepSparseDenseOverlap walks StepBlock through the pageIndex
// sparse-then-dense growth window (see TestPolicySparseDenseOverlap).
func TestBlockStepSparseDenseOverlap(t *testing.T) {
	for _, tc := range diffCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(23))
			ops := overlapOps(r, tc.directives)
			runBlockDiff(t, tc.dense(), tc.dense(), tc.dense(), tc.oracle(), ops, 0, "overlap")
		})
	}
}
