package sweep_test

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/sweep"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
)

var wsTaus = []int{1, 2, 3, 5, 10, 25, 80, 300, 2500}

func TestWSHistogramsMatchBrute(t *testing.T) {
	tr := randomTrace(5, 3000, 40)
	s := mustWS(t, tr)
	for _, tau := range wsTaus {
		b := vmsim.Run(tr.RefsOnly(), policy.NewWS(tau))
		if got := s.Faults(tau); got != b.Faults {
			t.Errorf("tau=%d: faults %d != brute %d", tau, got, b.Faults)
		}
		if got := s.MemSum(tau); got != b.MemSum {
			t.Errorf("tau=%d: MemSum %v != brute %v", tau, got, b.MemSum)
		}
		if got := s.MEM(tau); math.Abs(got-b.MEM()) > 1e-9 {
			t.Errorf("tau=%d: MEM %v != brute %v", tau, got, b.MEM())
		}
	}
}

// TestWSCurveMatchesBrute checks the event-driven grid engine produces
// the complete per-τ Result — including the fault-coupled space-time
// integral and the working-set peak — identically to one replay per τ.
func TestWSCurveMatchesBrute(t *testing.T) {
	tr := randomTrace(9, 3000, 40)
	s := mustWS(t, tr)
	got, err := s.Curve(wsTaus)
	if err != nil {
		t.Fatal(err)
	}
	for i, tau := range wsTaus {
		b := vmsim.Run(tr.RefsOnly(), policy.NewWS(tau))
		if got[i] != b {
			t.Errorf("tau=%d:\n curve %+v\n brute %+v", tau, got[i], b)
		}
	}
}

func TestWSCurvePropertyRandom(t *testing.T) {
	f := func(seed uint16, rawTau uint8) bool {
		tr := randomTrace(uint64(seed)+1, 500, 20)
		s, err := sweep.NewWS(tr)
		if err != nil {
			return false
		}
		taus := []int{1, int(rawTau)/4 + 1, int(rawTau) + 1, 3 * int(rawTau), 600}
		got, err := s.Curve(taus)
		if err != nil {
			return false
		}
		for i, tau := range taus {
			if tau < 1 {
				tau = 1
			}
			if got[i] != vmsim.Run(tr.RefsOnly(), policy.NewWS(tau)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestWSCurveDegenerate covers the grid-engine corners: τ covering the
// whole trace (nothing ever expires), τ = 1 (everything expires next
// step), duplicate and unsorted grids, single-page traces.
func TestWSCurveDegenerate(t *testing.T) {
	tr := randomTrace(13, 200, 6)
	s := mustWS(t, tr)
	grids := [][]int{
		{1},
		{200, 1, 200, 7, 1},
		{100000},
		{1, 2, 3, 4, 5, 6, 7, 8},
	}
	for _, taus := range grids {
		got, err := s.Curve(taus)
		if err != nil {
			t.Fatal(err)
		}
		for i, tau := range taus {
			b := vmsim.Run(tr.RefsOnly(), policy.NewWS(tau))
			if got[i] != b {
				t.Fatalf("grid %v tau=%d: %+v != %+v", taus, tau, got[i], b)
			}
		}
	}

	one := randomTrace(1, 50, 1)
	so := mustWS(t, one)
	for _, tau := range []int{1, 3, 50} {
		got, err := so.Run(tau)
		if err != nil {
			t.Fatal(err)
		}
		if b := vmsim.Run(one.RefsOnly(), policy.NewWS(tau)); got != b {
			t.Fatalf("single-page tau=%d: %+v != %+v", tau, got, b)
		}
	}
}

func TestWSRunCaches(t *testing.T) {
	tr := randomTrace(21, 800, 15)
	s := mustWS(t, tr)
	a, err := s.Run(37)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(37)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("cache returned a different result: %+v vs %+v", a, b)
	}
}

func TestWSTauForMEM(t *testing.T) {
	tr := randomTrace(17, 2500, 30)
	s := mustWS(t, tr)
	for _, target := range []float64{1.0, 2.5, 4.0, 8.0, s.MEM(40)} {
		tau := s.TauForMEM(target)
		got := s.MEM(tau)
		// No neighbouring τ may be meaningfully closer to the target.
		for _, other := range []int{tau - 1, tau + 1} {
			if other < 1 {
				continue
			}
			if math.Abs(s.MEM(other)-target) < math.Abs(got-target)-1e-12 {
				t.Errorf("target %v: τ=%d closer than chosen τ=%d", target, other, tau)
			}
		}
	}
}

func TestWSMinTauForFaults(t *testing.T) {
	tr := randomTrace(23, 2500, 30)
	s := mustWS(t, tr)
	target := s.Faults(100)
	tau, ok := s.MinTauForFaults(target)
	if !ok {
		t.Fatal("achievable target reported unachievable")
	}
	if s.Faults(tau) > target {
		t.Errorf("tau=%d faults %d exceed target %d", tau, s.Faults(tau), target)
	}
	if tau > 1 && s.Faults(tau-1) <= target {
		t.Errorf("tau=%d is not minimal", tau)
	}
}

// TestWSMinSTMatchesLadderScan pins MinST to the reference definition: a
// strict-< scan of full replays over the default τ ladder, in ladder
// order.
func TestWSMinSTMatchesLadderScan(t *testing.T) {
	tr := randomTrace(29, 2000, 25)
	s := mustWS(t, tr)
	tau, res, err := s.MinST()
	if err != nil {
		t.Fatal(err)
	}
	bestTau, best := 0, vmsim.Result{SpaceTime: math.Inf(1)}
	for _, tt := range vmsim.DefaultTaus(tr.Refs) {
		r := vmsim.Run(tr.RefsOnly(), policy.NewWS(tt))
		if r.SpaceTime < best.SpaceTime {
			bestTau, best = tt, r
		}
	}
	if tau != bestTau || res != best {
		t.Fatalf("MinST (%d, %+v) != ladder scan (%d, %+v)", tau, res, bestTau, best)
	}
}

// TestWSMinSTTiesBreakToSmallerTau pins the ladder-order tie rule under
// pruning: on these traces several ladder points share the minimal ST,
// and the smallest of them must win.
func TestWSMinSTTiesBreakToSmallerTau(t *testing.T) {
	cases := []struct {
		name  string
		pages []mem.Page
		want  int
	}{
		// One page: every τ costs R + FaultService, which is also every
		// point's histogram bound, so a point whose bound equals the best
		// ST must still be computed.
		{"one page", make([]mem.Page, 40), 1},
		// Three pages round robin: every τ >= 3 keeps all three resident
		// and faults only on the first references.
		{"round robin", []mem.Page{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}, 3},
		// Two pages: every τ >= 10 faults only on the two first
		// references. τ=10 is a lower-half point computed only if it
		// survives pruning, and its bound equals the best ST exactly:
		// skipping bound-equal points would pick the upper half's τ=14.
		{"bound equals best", []mem.Page{1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 1}, 10},
	}
	for _, c := range cases {
		tr := trace.New(c.name)
		for _, pg := range c.pages {
			tr.AddRef(pg)
		}
		taus := vmsim.DefaultTaus(tr.Refs)
		want := vmsim.Run(tr.RefsOnly(), policy.NewWS(c.want))
		if top := vmsim.Run(tr.RefsOnly(), policy.NewWS(taus[len(taus)-1])); top.SpaceTime != want.SpaceTime {
			t.Fatalf("%s: no tie: ST %v at τ=%d, %v at τ=%d", c.name, want.SpaceTime, c.want, top.SpaceTime, taus[len(taus)-1])
		}
		tau, res, err := mustWS(t, tr).MinST()
		if err != nil {
			t.Fatal(err)
		}
		if tau != c.want || res != want {
			t.Errorf("%s: MinST (%d, %+v), want (%d, %+v)", c.name, tau, res, c.want, want)
		}
	}
}

// TestWSMinSTMatchesCurveScanRandom checks the pruned search against a
// strict-< scan of the unpruned ladder curve on many short traces over
// few pages, where exact ST ties and bounds equal to the best ST are
// common.
func TestWSMinSTMatchesCurveScanRandom(t *testing.T) {
	seed := uint64(7)
	rng := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	for iter := 0; iter < 3000; iter++ {
		n, universe := 5+int(rng()%60), 1+rng()%5
		tr := trace.New("rand")
		var pages []mem.Page
		for i := 0; i < n; i++ {
			pg := mem.Page(rng() % universe)
			if rng()%3 == 0 && i > 0 {
				pg = pages[i-1]
			}
			pages = append(pages, pg)
			tr.AddRef(pg)
		}
		taus := vmsim.DefaultTaus(tr.Refs)
		curve, err := mustWS(t, tr).Curve(taus)
		if err != nil {
			t.Fatal(err)
		}
		best := 0
		for i := range curve {
			if curve[i].SpaceTime < curve[best].SpaceTime {
				best = i
			}
		}
		tau, res, err := mustWS(t, tr).MinST()
		if err != nil {
			t.Fatal(err)
		}
		if tau != taus[best] || res != curve[best] {
			t.Fatalf("pages %v: MinST (%d, %+v), ladder scan (%d, %+v)", pages, tau, res, taus[best], curve[best])
		}
	}
}

// genSource is a synthetic 64-page reference stream generated block by
// block: nothing is materialized, so what a consumer allocates is its
// own. Pages 0-55 are drawn at random; every 2^18th reference goes to
// one of pages 56-63 in turn, so those recur only every 2M references,
// far beyond the WS histogram's dense limit.
type genSource struct{ refs int }

func (g genSource) Meta() trace.Meta {
	return trace.Meta{Name: "gen", Events: g.refs, Refs: g.refs, Distinct: 64, MaxPage: 63}
}

func (genSource) Tables() *trace.SideTables { return &trace.SideTables{} }

func (g genSource) Blocks(trace.CursorOpts) trace.Cursor {
	return &genCursor{left: g.refs, seed: 1, buf: make([]mem.Page, 4096)}
}

type genCursor struct {
	left, t int
	seed    uint64
	buf     []mem.Page
}

func (c *genCursor) Next(b *trace.Block) bool {
	if c.left == 0 {
		return false
	}
	n := min(c.left, len(c.buf))
	for i := range c.buf[:n] {
		c.t++
		c.seed = c.seed*6364136223846793005 + 1442695040888963407
		pg := mem.Page(c.seed>>33) % 56
		if c.t%(1<<18) == 0 {
			pg = 56 + mem.Page(c.t>>18)%8
		}
		c.buf[i] = pg
	}
	c.left -= n
	*b = trace.Block{Pages: c.buf[:n]}
	return true
}

func (*genCursor) Err() error   { return nil }
func (*genCursor) Close() error { return nil }

// TestWSHistogramMemoryIsSublinear builds the WS index of a 20M-ref
// stream over 64 pages in a few MB, where one 8-byte counter per
// reference would need 160 MB per array, and checks it against streamed
// replays on both sides of the dense limit.
func TestWSHistogramMemoryIsSublinear(t *testing.T) {
	src := genSource{refs: 20_000_000}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := sweep.NewWS(src)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 16<<20 {
		t.Fatalf("NewWS allocated %d MB for %d refs, want < 16 MB", d>>20, src.refs)
	}
	for _, tau := range []int{s.Lim() / 2, 4 * s.Lim()} {
		r, err := vmsim.RunSource(src, policy.NewWS(tau), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Faults(tau); got != r.Faults {
			t.Errorf("τ=%d (L=%d): faults %d != replay %d", tau, s.Lim(), got, r.Faults)
		}
		if got := s.MemSum(tau); got != r.MemSum {
			t.Errorf("τ=%d (L=%d): MemSum %v != replay %v", tau, s.Lim(), got, r.MemSum)
		}
	}
}
