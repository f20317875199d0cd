package sweep

import (
	"math"
	"sort"
	"sync"

	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
)

// WS answers working-set questions for every window size τ from one
// traversal of the reference stream, without replaying it per τ.
//
// One interval histogram gives the closed forms:
//
//   - Faults(τ): a reference faults iff the backward inter-reference
//     interval of its page exceeds τ (first references always fault), so
//     PF(τ) is a suffix count of the interval histogram.
//   - MemSum(τ): a reference at time u with forward re-reference distance
//     d (to the next reference of the same page, or to the end of the
//     stream) keeps its page in W(t,τ) for exactly min(τ, d) time steps,
//     so Σ_t |W(t,τ)| = Σ_u min(τ, d_u). The non-final forward distances
//     are the non-first backward intervals (both are the gaps between
//     consecutive references of one page), so this is a prefix sum over
//     the same histogram plus the V end-of-stream distances.
//
// The histogram is dense for intervals up to L = ⌈√(V·R)⌉ and a sorted
// list beyond: a reference whose interval exceeds L is the first
// reference of its page in its L-block, so at most V·⌈R/L⌉ of them
// exist and the whole index is O(√(V·R)) rather than O(R).
//
// The space-time integral couples the working-set size to fault instants
// and does not reduce to a histogram; Curve computes it exactly for a
// whole τ grid in one event-driven traversal (see Curve), which is what
// MinST and Run use. All paths are cross-validated against brute
// per-cell replay in the tests.
type WS struct {
	Refs int
	src  trace.Source

	// first counts first references: they fault at every τ.
	first int
	// lim is L. cntLE[k] and sumLE[k] count and sum the intervals in
	// [1, k] for k <= lim; long holds the intervals above lim, sorted,
	// with longSum[i] = Σ long[:i].
	lim     int
	cntLE   []int64
	sumLE   []int64
	long    []int
	longSum []int64
	// ends are the final references' forward distances (to the end of
	// the stream), sorted, with endSum[i] = Σ ends[:i].
	ends   []int
	endSum []int64

	// mu guards the memoized curve points; the engine shares one WS per
	// program across concurrent table rows.
	mu    sync.Mutex
	cache map[int]vmsim.Result
}

// NewWS analyzes a reference stream's interval histogram in one
// traversal. The source is retained: Curve/Run/MinST traverse it again
// (once per grid, not once per τ).
func NewWS(src trace.Source) (*WS, error) {
	meta := src.Meta()
	n := meta.Refs
	s := &WS{Refs: n, src: src, cache: map[int]vmsim.Result{}}

	v := meta.Distinct
	if v < 1 {
		v = int(meta.MaxPage) + 1
	}
	lim := max(min(int(math.Ceil(math.Sqrt(float64(v)*float64(n)))), n), 1)
	cnt := make([]int64, lim+1)
	var long []int
	last := make([]int, int(meta.MaxPage)+2)
	first, t := 0, 0
	err := walkRefs(src, func(pages []mem.Page) {
		for _, pg := range pages {
			t++
			if prev := last[pg]; prev == 0 {
				first++
			} else if b := t - prev; b <= lim {
				cnt[b]++
			} else {
				long = append(long, b)
			}
			last[pg] = t
		}
	})
	if err != nil {
		return nil, err
	}
	s.first, s.lim, s.cntLE, s.long = first, lim, cnt, long
	for _, pos := range last {
		if pos != 0 {
			s.ends = append(s.ends, n-pos+1)
		}
	}

	s.sumLE = make([]int64, s.lim+1)
	for d := 1; d <= s.lim; d++ {
		s.sumLE[d] = s.sumLE[d-1] + int64(d)*cnt[d]
		s.cntLE[d] += s.cntLE[d-1]
	}
	s.longSum = sortedPrefix(s.long)
	s.endSum = sortedPrefix(s.ends)
	return s, nil
}

// sortedPrefix sorts vals and returns their prefix sums.
func sortedPrefix(vals []int) []int64 {
	sort.Ints(vals)
	pre := make([]int64, len(vals)+1)
	for i, x := range vals {
		pre[i+1] = pre[i] + int64(x)
	}
	return pre
}

// upTo returns how many of the sorted vals are <= k, and their sum.
func upTo(vals []int, pre []int64, k int) (int64, int64) {
	i := sort.SearchInts(vals, k+1)
	return int64(i), pre[i]
}

// intervalsUpTo returns how many non-first backward intervals are <= k,
// and their sum.
func (s *WS) intervalsUpTo(k int) (int64, int64) {
	if k <= s.lim {
		return s.cntLE[k], s.sumLE[k]
	}
	c, sum := upTo(s.long, s.longSum, k)
	return s.cntLE[s.lim] + c, s.sumLE[s.lim] + sum
}

// Faults returns PF under window size tau.
func (s *WS) Faults(tau int) int {
	if tau < 1 {
		tau = 1
	}
	c, _ := s.intervalsUpTo(tau)
	return s.first + int(s.cntLE[s.lim]+int64(len(s.long))-c)
}

// MemSum returns Σ_t |W(t,τ)|.
func (s *WS) MemSum(tau int) float64 {
	if tau < 1 {
		tau = 1
	}
	if tau > s.Refs+1 {
		tau = s.Refs + 1
	}
	// Σ min(τ, d) = Σ_{d<=τ} d + τ·#{d>τ}, over the R forward distances.
	// Every partial sum is an integer below 2^53, so the float64
	// conversion is exact and matches per-cell accumulation bit for bit.
	c, sum := s.intervalsUpTo(tau)
	ce, sume := upTo(s.ends, s.endSum, tau)
	i := int64(tau)
	return float64(sum+sume) + float64(i)*float64(int64(s.Refs)-c-ce)
}

// MEM returns the average working-set size under window size tau.
func (s *WS) MEM(tau int) float64 {
	if s.Refs == 0 {
		return 0
	}
	return s.MemSum(tau) / float64(s.Refs)
}

// TauForMEM returns the window size whose average working-set size is
// closest to target (MEM is non-decreasing in τ, so binary search).
func (s *WS) TauForMEM(target float64) int {
	lo, hi := 1, s.Refs
	if hi < 1 {
		return 1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if s.MEM(mid) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first τ with MEM >= target; τ-1 may be closer.
	if lo > 1 && target-s.MEM(lo-1) < s.MEM(lo)-target {
		return lo - 1
	}
	return lo
}

// MinTauForFaults returns the smallest window size whose fault count is at
// most target (faults are non-increasing in τ). The second result is false
// if no window achieves the target.
func (s *WS) MinTauForFaults(target int) (int, bool) {
	if s.Faults(s.Refs) > target {
		return s.Refs, false
	}
	lo, hi := 1, s.Refs
	for lo < hi {
		mid := (lo + hi) / 2
		if s.Faults(mid) <= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// Run returns the exact replay result at one window size, computed by the
// curve engine (one stream traversal; memoized per τ).
func (s *WS) Run(tau int) (vmsim.Result, error) {
	if tau < 1 {
		tau = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.cache[tau]; ok {
		return r, nil
	}
	rs, err := s.curveLocked([]int{tau})
	if err != nil {
		return vmsim.Result{}, err
	}
	return rs[0], nil
}

// MinST scans the standard τ ladder for the window minimizing the
// space-time cost. It returns the best τ and its full result; ties break
// toward the smaller τ (strict-less scan in ladder order), matching the
// per-cell ladder scan. The extra windows are computed exactly in the
// same first grid pass and memoized, so later Run calls for them cost
// no traversal.
//
// At most two traversals answer the ladder, pruned by lower bounds on
// ST. A fault step charges FaultService times the working-set size after
// the fault, so ST(τ) = MemSum(τ) + FaultService·Σ_{faults t} |W(t,τ)|.
// Two facts bound the sum for τ >= c: τ faults at a subset of c's fault
// instants (those whose backward interval exceeds τ), and |W(t,τ)| >=
// |W(t,c)|. So a pass that records c's working-set size at each fault,
// bucketed by backward interval over the ladder, bounds every larger
// ladder point; with no such c, |W| >= 1 gives MemSum + FaultService·PF.
//
// The first pass computes the upper half of the ladder, whose points are
// cheap (few faults and expiries), the extras, and a coarse sample of
// the lower half that records those buckets: every coarseStride-th point
// up from the lowest whose PF bound is within an estimate of the minimum.
// The second computes only the lower points whose bound does not exceed
// the best ST found so far. A point is skipped only when its bound is
// strictly above an achieved ST, so it can be neither the minimum nor a
// tie, and the scan picks the same τ as a scan of the whole ladder.
func (s *WS) MinST(extra ...int) (int, vmsim.Result, error) {
	taus := vmsim.DefaultTaus(s.Refs)
	if len(taus) == 0 {
		taus = []int{1}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := len(taus) / 2
	fs := float64(policy.FaultService)
	pfBound := func(tau int) float64 { return s.MemSum(tau) + fs*float64(s.Faults(tau)) }

	// The estimate charges each fault the mean working-set size; it only
	// places the sample, so it need not bound anything.
	est := math.Inf(1)
	for _, tau := range taus[h:] {
		est = min(est, s.MemSum(tau)+fs*float64(s.Faults(tau))*s.MEM(tau))
	}
	pass1 := append(append([]int(nil), taus[h:]...), extra...)
	floor := 0
	for floor < h && pfBound(taus[floor]) > est {
		floor++
	}
	for m := floor; m < h; m += coarseStride {
		pass1 = append(pass1, taus[m])
	}
	uniq := s.pending(pass1)
	rec := sort.SearchInts(uniq, taus[h]) // windows that can bound a lower point
	faultWS, err := s.runGrid(uniq, taus, rec)
	if err != nil {
		return 0, vmsim.Result{}, err
	}
	best := math.Inf(1)
	for _, tau := range taus {
		if r, ok := s.cache[tau]; ok {
			best = min(best, r.SpaceTime)
		}
	}

	var rest []int
	for m, tau := range taus[:h] {
		if _, ok := s.cache[tau]; ok {
			continue
		}
		bound := pfBound(tau)
		if j := sort.SearchInts(uniq[:rec], tau+1) - 1; j >= 0 {
			// Faults of tau have more than m ladder points below their
			// backward interval.
			var sum int64
			for k := m + 1; k <= len(taus); k++ {
				sum += faultWS[k*rec+j]
			}
			bound = s.MemSum(tau) + float64(policy.FaultService*sum)
		}
		if bound <= best {
			rest = append(rest, tau)
		}
	}
	if _, err := s.runGrid(s.pending(rest), nil, 0); err != nil {
		return 0, vmsim.Result{}, err
	}
	bestTau, bestRes := 0, vmsim.Result{}
	for _, tau := range taus {
		r, ok := s.cache[tau]
		if ok && (bestTau == 0 || r.SpaceTime < bestRes.SpaceTime) {
			bestTau, bestRes = tau, r
		}
	}
	return bestTau, bestRes, nil
}

// coarseStride spaces MinST's sample of the lower ladder: 8 ladder steps
// of ~12% are a factor of ~2.5 in τ, close enough for the sampled
// working-set sizes to bound the points between.
const coarseStride = 8

// Curve computes the exact replay result for every window size in taus —
// PF, MEM, the fault-coupled space-time integral, peak working set — in
// ONE traversal of the stream.
//
// The engine is event-driven. Grid windows are kept sorted; per window i
// it holds the live working-set size ws[i] and the last materialized
// step lastT[i], accumulating the (overwhelmingly common) no-change
// steps lazily as ws[i]×Δt. Per step t with backward interval b, windows
// with τ < b fault (a prefix of the sorted grid, found by binary
// search). Expiries are lazy chains through a calendar ring: the
// reference at time u schedules one event at u+τ₀; when it fires, the
// chain dies if the page was re-referenced meanwhile, otherwise window 0
// expires the page and the chain advances to u+τ₁, and so on up the
// grid. Total work is O(R·log|grid| + Σ_i PF(τ_i) + Σ_i X(τ_i)) — the
// activity the curves themselves measure — instead of O(R×|grid|).
func (s *WS) Curve(taus []int) ([]vmsim.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curveLocked(taus)
}

func (s *WS) curveLocked(taus []int) ([]vmsim.Result, error) {
	if _, err := s.runGrid(s.pending(taus), nil, 0); err != nil {
		return nil, err
	}
	out := make([]vmsim.Result, len(taus))
	for i, tau := range taus {
		out[i] = s.cache[max(tau, 1)]
	}
	return out, nil
}

// pending returns the sorted unique windows of taus (τ < 1 read as 1)
// that are not memoized yet.
func (s *WS) pending(taus []int) []int {
	uniq := make([]int, 0, len(taus))
	for _, tau := range taus {
		tau = max(tau, 1)
		if _, ok := s.cache[tau]; !ok {
			uniq = append(uniq, tau)
		}
	}
	sort.Ints(uniq)
	g := 0
	for i, tau := range uniq {
		if i == 0 || tau != uniq[g-1] {
			uniq[g] = tau
			g++
		}
	}
	return uniq[:g]
}

// chain is one reference's pending expiry in runGrid's calendar ring.
type chain struct {
	u    int   // the reference's time
	page int32 // its page
	idx  int32 // grid index of the window it expires from next
	next int32 // next node+1 in its fire-slot bucket; 0 ends the bucket
}

// runGrid executes the event-driven lockstep pass over the sorted unique
// grid, filling s.cache; an empty grid is a no-op. For the first rec
// windows it also returns the working-set size after each fault, summed
// by the fault's backward interval b over the ladder: entry k*rec+i sums
// window i's faults with k ladder points below b (k = len(ladder) for
// first references).
func (s *WS) runGrid(uniq, ladder []int, rec int) ([]int64, error) {
	if len(uniq) == 0 {
		return nil, nil
	}
	n := s.Refs
	g := len(uniq)
	meta := s.src.Meta()
	var faultWS []int64
	if rec > 0 {
		faultWS = make([]int64, (len(ladder)+1)*rec)
	}

	// Per-window state.
	ws := make([]int, g)     // live working-set size
	pf := make([]int, g)     // faults
	maxws := make([]int, g)  // peak working-set size
	memS := make([]int64, g) // Σ resident after each step
	stS := make([]int64, g)  // Σ resident × dt
	lastT := make([]int, g)  // next unmaterialized step
	exitAt := make([]int, g) // step stamp: window expired a page this step
	for i := range lastT {
		lastT[i] = 1
		exitAt[i] = -1
	}

	// Calendar ring of expiry chains. A chain lives at node u % W (at
	// most one per reference in the trailing τ_max window), linked into
	// the bucket of its next fire time.
	w := uniq[g-1] + 1
	if w > n+1 {
		w = n + 1 // fire times never exceed n
	}
	if w < 1 {
		w = 1
	}
	w32 := int32(w)
	heads := make([]int32, w) // fire-slot -> node+1; 0 = empty
	nodes := make([]chain, w)

	last := make([]int, int(meta.MaxPage)+2)
	exits := make([]int32, 0, g)
	tau0 := uniq[0]
	fs := int64(1 + policy.FaultService)

	t, slot := 0, int32(0) // slot = t % w
	err := walkRefs(s.src, func(pages []mem.Page) {
		for _, pg := range pages {
			t++
			prev := last[pg]
			last[pg] = t

			// Drain this step's expiry chains. The current reference is
			// already stamped, so a chain whose page is being re-touched
			// right now (backward interval exactly τ) correctly dies:
			// insertion precedes expiry in the per-cell replay.
			exits = exits[:0]
			if slot++; slot == w32 {
				slot = 0
			}
			for nd := heads[slot]; nd != 0; {
				c := &nodes[nd-1]
				next := c.next
				if last[c.page] == c.u { // else re-referenced in (u, t]: chain dies
					i := c.idx
					exits = append(exits, i)
					if int(i+1) < g && c.u+uniq[i+1] <= n {
						c.idx = i + 1
						s2 := slot + int32(uniq[i+1]-uniq[i])
						if s2 >= w32 {
							s2 -= w32
						}
						c.next = heads[s2]
						heads[s2] = nd
					}
				}
				nd = next
			}
			heads[slot] = 0

			// Windows with τ < b fault: a prefix of the sorted grid.
			faultIdx := 0
			if prev == 0 {
				faultIdx = g
			} else if b := t - prev; b > tau0 {
				if b > uniq[g-1] {
					faultIdx = g
				} else {
					lo, hi := 0, g-1 // uniq[hi] >= b
					for lo < hi {
						if m := int(uint(lo+hi) >> 1); uniq[m] < b {
							lo = m + 1
						} else {
							hi = m
						}
					}
					faultIdx = lo
				}
			}

			// Expiries alone (no fault): resident shrinks by one.
			for _, e := range exits {
				i := int(e)
				if i < faultIdx {
					exitAt[i] = t // merge with the fault below
					continue
				}
				if gap := t - lastT[i]; gap > 0 {
					r := int64(ws[i])
					memS[i] += r * int64(gap)
					stS[i] += r * int64(gap)
				}
				ws[i]--
				r := int64(ws[i])
				memS[i] += r
				stS[i] += r
				lastT[i] = t + 1
			}
			// Faults: resident grows by one (unless an expiry landed on
			// the same step), and the step costs 1+FaultService.
			for i := 0; i < faultIdx; i++ {
				if gap := t - lastT[i]; gap > 0 {
					r := int64(ws[i])
					memS[i] += r * int64(gap)
					stS[i] += r * int64(gap)
				}
				if exitAt[i] != t {
					ws[i]++
					if ws[i] > maxws[i] {
						maxws[i] = ws[i]
					}
				}
				pf[i]++
				r := int64(ws[i])
				memS[i] += r
				stS[i] += r * fs
				lastT[i] = t + 1
			}
			if nr := min(faultIdx, rec); nr > 0 {
				k := len(ladder)
				if prev != 0 {
					k = sort.SearchInts(ladder, t-prev)
				}
				row := faultWS[k*rec : k*rec+nr]
				for i := range row {
					row[i] += int64(ws[i])
				}
			}

			// Schedule this reference's expiry chain.
			if fire := t + tau0; fire <= n {
				s2 := slot + int32(tau0)
				if s2 >= w32 {
					s2 -= w32
				}
				nodes[slot] = chain{u: t, page: int32(pg), next: heads[s2]}
				heads[s2] = slot + 1
			}
		}
	})
	if err != nil {
		return nil, err
	}
	// Materialize the tail: constant working set to the end of the run.
	for i := range ws {
		if gap := n + 1 - lastT[i]; gap > 0 {
			r := int64(ws[i])
			memS[i] += r * int64(gap)
			stS[i] += r * int64(gap)
		}
		vt := int64(n) + int64(pf[i])*policy.FaultService
		s.cache[uniq[i]] = vmsim.Result{
			Policy:      policy.NewWS(uniq[i]).Name(),
			Refs:        n,
			Faults:      pf[i],
			MemSum:      float64(memS[i]),
			SpaceTime:   float64(stS[i]),
			VirtualTime: vt,
			MaxResident: maxws[i],
		}
	}
	return faultWS, nil
}
