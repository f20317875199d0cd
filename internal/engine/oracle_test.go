package engine_test

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cdmm/internal/engine"
	"cdmm/internal/experiments"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/vmsim"
	"cdmm/internal/workloads"
)

// The per-cell oracle. The engine computes every sweep artifact from
// one-pass curves (internal/sweep); the oracle recomputes each one by a
// full vmsim.Run replay per curve point and checks it field by field,
// then seeds a fresh engine with the per-cell values and requires the
// outputs that read them to render byte for byte as the curve engine's.

// renderer draws one output that reads curve artifacts, as cdmm prints it.
type renderer struct {
	name   string
	render func(*engine.Engine) (string, error)
}

var (
	renderTable2 = renderer{"table2", func(e *engine.Engine) (string, error) {
		rows, err := experiments.Table2(e)
		return experiments.RenderTable2(rows), err
	}}
	renderTable3 = renderer{"table3", func(e *engine.Engine) (string, error) {
		rows, err := experiments.Table3(e)
		return experiments.RenderTable3(rows), err
	}}
	renderTable4 = renderer{"table4", func(e *engine.Engine) (string, error) {
		rows, err := experiments.Table4(e)
		return experiments.RenderTable4(rows), err
	}}
	renderDetune = renderer{"detune", func(e *engine.Engine) (string, error) {
		rows, err := experiments.DetuneStudy(e, nil, nil)
		return experiments.RenderDetune(rows), err
	}}
	renderers = []renderer{renderTable2, renderTable3, renderTable4, renderDetune}
)

// cellOracle holds a curve engine that has rendered every renderer and
// answered LRUSweep and WSMinST for all nine workloads, the curve
// renderings, and a per-cell value for every sweep artifact in its memo.
type cellOracle struct {
	curve    *engine.Engine
	rendered map[string]string
	cells    map[engine.Key]any
	// diffs lists every field-by-field disagreement between a curve
	// artifact and its per-cell recomputation.
	diffs []string
}

var (
	oracleOnce sync.Once
	oracle     *cellOracle
	oracleErr  error
)

// cells returns the oracle, building it on first use.
func cells(t *testing.T) *cellOracle {
	t.Helper()
	if testing.Short() {
		t.Skip("the per-cell oracle replays every curve point; skipped under -short")
	}
	oracleOnce.Do(func() { oracle, oracleErr = buildOracle() })
	if oracleErr != nil {
		t.Fatal(oracleErr)
	}
	return oracle
}

func buildOracle() (*cellOracle, error) {
	o := &cellOracle{curve: engine.New(1), rendered: map[string]string{}, cells: map[engine.Key]any{}}
	for _, r := range renderers {
		out, err := r.render(o.curve)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		o.rendered[r.name] = out
	}
	for _, p := range workloads.Names() {
		if _, err := o.curve.LRUSweep(nil, p); err != nil {
			return nil, err
		}
		if _, _, err := o.curve.WSMinST(nil, p); err != nil {
			return nil, err
		}
	}
	// Each check replays its artifact's cells; the checks run on the
	// engine's own worker pool and report in key order.
	keys := o.curve.Keys()
	checks, err := engine.Map(engine.New(0), keys, func(_ *engine.RunCtx, k engine.Key) (*check, error) {
		c := &check{k: k}
		var err error
		switch k.Kind {
		case "lru-sweep":
			err = o.checkLRU(c)
		case "ws-min":
			err = o.checkWSMin(c)
		case "ws-run":
			err = o.checkWSRun(c)
		case "cd-detune":
			err = o.checkDetune(c)
		}
		return c, err
	})
	if err != nil {
		return nil, err
	}
	for _, c := range checks {
		if c.cell != nil {
			o.cells[c.k] = c.cell
		}
		o.diffs = append(o.diffs, c.diffs...)
	}
	return o, nil
}

// check is one sweep artifact's per-cell recomputation.
type check struct {
	k     engine.Key
	cell  any
	diffs []string
}

func (c *check) diff(format string, args ...any) {
	c.diffs = append(c.diffs, fmt.Sprintf("%s %s %s: ", c.k.Kind, c.k.Program, c.k.Params)+fmt.Sprintf(format, args...))
}

// checkLRU replays LRU at every allocation 1..V. A curve is fully
// determined by its per-allocation Results, so one that matches them all
// is the curve the cells would build, and the seeded engine reuses it.
func (o *cellOracle) checkLRU(c *check) error {
	comp, err := o.curve.Compiled(nil, c.k.Program)
	if err != nil {
		return err
	}
	curve, err := o.curve.LRUSweep(nil, c.k.Program)
	if err != nil {
		return err
	}
	refs := comp.Trace.RefsOnly()
	for m := 1; m <= curve.V; m++ {
		if got, want := curve.Result(m), vmsim.Run(refs, policy.NewLRU(m)); got != want {
			c.diff("m=%d: curve %+v, cell %+v", m, got, want)
		}
	}
	c.cell = curve
	return nil
}

// checkWSMin scans the whole τ ladder with a strict-< replay per window,
// and checks the interval histogram at every ladder window on the way.
func (o *cellOracle) checkWSMin(c *check) error {
	comp, err := o.curve.Compiled(nil, c.k.Program)
	if err != nil {
		return err
	}
	hist, err := o.curve.WSSweep(nil, c.k.Program)
	if err != nil {
		return err
	}
	refs := comp.Trace.RefsOnly()
	var wantTau int
	var want vmsim.Result
	for i, tau := range vmsim.DefaultTaus(comp.Trace.Refs) {
		r := vmsim.Run(refs, policy.NewWS(tau))
		if hist.Faults(tau) != r.Faults || hist.MemSum(tau) != r.MemSum {
			c.diff("histogram at tau=%d: PF %d MemSum %v, cell PF %d MemSum %v",
				tau, hist.Faults(tau), hist.MemSum(tau), r.Faults, r.MemSum)
		}
		if i == 0 || r.SpaceTime < want.SpaceTime {
			wantTau, want = tau, r
		}
	}
	tau, got, err := o.curve.WSMinST(nil, c.k.Program)
	if err != nil {
		return err
	}
	if tau != wantTau || got != want {
		c.diff("curve (%d, %+v), cell (%d, %+v)", tau, got, wantTau, want)
	}
	c.cell = engine.WSMinValue(wantTau, want)
	return nil
}

func (o *cellOracle) checkWSRun(c *check) error {
	tau, err := strconv.Atoi(strings.TrimPrefix(c.k.Params, "tau="))
	if err != nil || engine.WSRunKey(c.k.Program, tau) != c.k {
		return fmt.Errorf("cannot read the window from the key (%v)", err)
	}
	comp, err := o.curve.Compiled(nil, c.k.Program)
	if err != nil {
		return err
	}
	got, err := o.curve.WSRun(nil, c.k.Program, tau)
	if err != nil {
		return err
	}
	want := vmsim.Run(comp.Trace.RefsOnly(), policy.NewWS(tau))
	if got != want {
		c.diff("curve %+v, cell %+v", got, want)
	}
	c.cell = want
	return nil
}

// checkDetune replays CD once per factor, with experiments.Detune (the
// rule every detune grid uses) under the set and minimum allocation the
// key names.
func (o *cellOracle) checkDetune(c *check) error {
	comp, err := o.curve.Compiled(nil, c.k.Program)
	if err != nil {
		return err
	}
	set, ok := comp.Program.Set(c.k.Set)
	if !ok {
		return fmt.Errorf("no set %q", c.k.Set)
	}
	head, grid, _ := strings.Cut(c.k.Params, ",factors=")
	var minAlloc int
	for _, f := range strings.Split(head, ",") {
		if v, ok := strings.CutPrefix(f, "min="); ok {
			minAlloc, _ = strconv.Atoi(v)
		}
	}
	var factors []float64
	for _, f := range strings.Split(grid, ":") {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return err
		}
		factors = append(factors, x)
	}
	if engine.CDDetuneKey(c.k.Program, set, minAlloc, factors) != c.k {
		return fmt.Errorf("cannot read set, minimum allocation and factors from the key")
	}
	got, err := o.curve.CDDetune(nil, c.k.Program, set, minAlloc, factors, experiments.Detune)
	if err != nil {
		return err
	}
	want := make([]vmsim.Result, len(factors))
	for i, f := range factors {
		want[i] = vmsim.Run(comp.Trace, policy.NewCD(experiments.Detune(set.Selector(), f), minAlloc))
		if got[i] != want[i] {
			c.diff("factor %g: curve %+v, cell %+v", f, got[i], want[i])
		}
	}
	c.cell = want
	return nil
}

// seeded returns a j-worker engine whose sweep artifacts are the
// oracle's per-cell values.
func (o *cellOracle) seeded(t *testing.T, j int) *engine.Engine {
	t.Helper()
	e := engine.New(j)
	for k, v := range o.cells {
		if _, err := e.Memo(nil, k, func(*engine.RunCtx, *obs.Observer) (any, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestCurveArtifactsMatchCells checks every sweep artifact the tables
// and the detune study read, on all nine workloads, against per-cell
// replays: the LRU curve at every allocation, the WS histogram and the
// ws-min winner over the whole τ ladder, WSRun at every Table 3/4
// window, and every CDDetune factor.
func TestCurveArtifactsMatchCells(t *testing.T) {
	o := cells(t)
	kinds := map[string]map[string]bool{}
	for k := range o.cells {
		if kinds[k.Kind] == nil {
			kinds[k.Kind] = map[string]bool{}
		}
		kinds[k.Kind][k.Program] = true
	}
	nine := len(workloads.Names())
	if len(kinds["lru-sweep"]) != nine || len(kinds["ws-min"]) != nine || len(kinds["ws-run"]) != nine {
		t.Errorf("oracle covers LRU/ws-min/ws-run on %d/%d/%d programs, want %d each",
			len(kinds["lru-sweep"]), len(kinds["ws-min"]), len(kinds["ws-run"]), nine)
	}
	if len(kinds["cd-detune"]) == 0 {
		t.Error("oracle covers no detune grid")
	}
	for _, d := range o.diffs {
		t.Error(d)
	}
}

// assertRendersMatch renders r on seeded engines at -j 1 and -j 8 and
// requires each to equal the curve engine's -j 1 rendering, and the
// renderer to read no sweep artifact the oracle did not seed.
func assertRendersMatch(t *testing.T, r renderer) {
	o := cells(t)
	want := o.rendered[r.name]
	if want == "" {
		t.Fatalf("empty %s rendering", r.name)
	}
	for _, j := range []int{1, 8} {
		e := o.seeded(t, j)
		got, err := r.render(e)
		if err != nil {
			t.Fatalf("-j %d: %v", j, err)
		}
		if got != want {
			t.Errorf("per-cell %s at -j %d differs from curve -j 1:\n%s\nvs\n%s", r.name, j, got, want)
		}
		for _, k := range e.Keys() {
			switch k.Kind {
			case "lru-sweep", "ws-min", "ws-run", "cd-detune":
				if _, ok := o.cells[k]; !ok {
					t.Errorf("-j %d: %s computed an unseeded curve artifact %+v", j, r.name, k)
				}
			}
		}
	}
}

// TestTable2CurveCellByteIdentical: Table 2, whose LRU and WS minima the
// sweep plane computes in one traversal each, renders identically from
// per-cell artifacts at any -j.
func TestTable2CurveCellByteIdentical(t *testing.T) { assertRendersMatch(t, renderTable2) }

// TestTables34CurveCellByteIdentical: likewise Tables 3 and 4, which read
// the LRU curve and WSRun at their matched windows.
func TestTables34CurveCellByteIdentical(t *testing.T) {
	assertRendersMatch(t, renderTable3)
	assertRendersMatch(t, renderTable4)
}

// TestDetuneCurveCellByteIdentical: the detune study's lockstep one-pass
// factor grid renders identically to one replay per factor.
func TestDetuneCurveCellByteIdentical(t *testing.T) { assertRendersMatch(t, renderDetune) }
