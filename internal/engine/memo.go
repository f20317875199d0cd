package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cdmm/internal/explain"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/sweep"
	"cdmm/internal/vmsim"
	"cdmm/internal/workloads"
)

// Key identifies one memoized computation. Keys are explicit composites —
// program, directive set, policy, and the full parameterization — so two
// runs that differ only in a selector or a tuning knob can never collide,
// unlike the old per-set-name bundle cache (which returned stale results
// when a different Set selector reused a name mid-process).
type Key struct {
	// Kind discriminates the artifact: "compile", "lru-sweep", "ws-sweep",
	// "cd-run", "ws-run", "ws-min", ...
	Kind string
	// Program is the workload name.
	Program string
	// Set is the directive-set name ("" for set-independent artifacts).
	Set string
	// Policy names the policy ("" for policy-independent artifacts).
	Policy string
	// Params serializes every remaining parameter of the computation.
	Params string
}

// memoEntry is one singleflight slot. done is closed when val, err,
// events and keys are final.
type memoEntry struct {
	done chan struct{}
	val  any
	err  error
	// events buffers what the computation emitted; flushed once into the
	// plan's merged stream at the earliest-declared requester's position.
	events []obs.Event
	// keys are the nested memo keys the computation itself requested,
	// replayed into every requester so key traces are identical whether a
	// requester computed or waited.
	keys    []Key
	flushed bool
}

type memo struct {
	mu sync.Mutex
	m  map[Key]*memoEntry
}

// flush emits the entry's buffered events once. Entries still computing
// (possible only for keys requested by a different, concurrent plan) are
// left for their own plan's merge.
func (m *memo) flush(k Key, t obs.Tracer) {
	m.mu.Lock()
	ent := m.m[k]
	m.mu.Unlock()
	if ent == nil {
		return
	}
	select {
	case <-ent.done:
	default:
		return
	}
	m.mu.Lock()
	if ent.flushed {
		m.mu.Unlock()
		return
	}
	ent.flushed = true
	m.mu.Unlock()
	for _, ev := range ent.events {
		t.Emit(ev)
	}
}

// Memo computes the value for k exactly once per engine: the first
// requester runs fn while every concurrent requester blocks until the
// result is ready (singleflight). fn receives a computation context for
// nested memo requests and a private observer whose events are buffered
// with the entry and merged into the plan's event stream at the position
// of the earliest-declared requester. rc may be nil for standalone
// (non-Map) use, in which case events are flushed to the base tracer
// immediately after computation.
func (e *Engine) Memo(rc *RunCtx, k Key, fn func(comp *RunCtx, o *obs.Observer) (any, error)) (any, error) {
	e.memo.mu.Lock()
	ent, ok := e.memo.m[k]
	if !ok {
		ent = &memoEntry{done: make(chan struct{})}
		e.memo.m[k] = ent
	}
	e.memo.mu.Unlock()

	if ok {
		<-ent.done
	} else {
		base := e.obs
		comp := &RunCtx{eng: e, progressID: -1}
		// The computing requester's live-position callback rides along so
		// a long memoized prerequisite still moves that run's /progress
		// entry (concurrent waiters just see the furthest position).
		var prog obs.ProgressFunc
		if rc != nil {
			prog = obs.ProgressOf(rc.Obs)
		}
		var o *obs.Observer
		if base.Enabled() {
			o = &obs.Observer{Metrics: base.Metrics, Progress: prog}
			if base.Tracer != nil {
				comp.buf = &obs.Collector{}
				o.Tracer = comp.buf
			}
			comp.Obs = o
		} else if prog != nil {
			o = &obs.Observer{Progress: prog}
			comp.Obs = o
		}
		ent.val, ent.err = fn(comp, o)
		if comp.buf != nil {
			ent.events = comp.buf.Events
		}
		ent.keys = comp.keys
		close(ent.done)
	}

	if rc != nil {
		// Record this key and the computation's nested keys so the merge
		// order is identical whether this requester computed or waited.
		rc.keys = append(rc.keys, k)
		rc.keys = append(rc.keys, ent.keys...)
	} else if base := e.obs; base != nil && base.Tracer != nil {
		e.flushMu.Lock()
		for _, nk := range ent.keys {
			e.memo.flush(nk, base.Tracer)
		}
		e.memo.flush(k, base.Tracer)
		e.flushMu.Unlock()
	}
	return ent.val, ent.err
}

// Forget drops the memoized value for k, if any. Tests use it to force
// recomputation; production plans never need it because keys are fully
// parameterized.
func (e *Engine) Forget(k Key) {
	e.memo.mu.Lock()
	delete(e.memo.m, k)
	e.memo.mu.Unlock()
}

// setParams serializes a directive set's full parameterization (not just
// its name) plus the CD minimum allocation: the composite-key fix for
// the stale-cache bug.
func setParams(set workloads.Set, minAlloc int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "level=%d,min=%d", set.Level, minAlloc)
	if len(set.Overrides) > 0 {
		keys := make([]string, 0, len(set.Overrides))
		for k := range set.Overrides {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, ",%s=%d", k, set.Overrides[k])
		}
	}
	return b.String()
}

// Compiled returns the program's compiled workload (AST, layout,
// directive plan, trace), computed once per engine.
func (e *Engine) Compiled(rc *RunCtx, program string) (*workloads.Compiled, error) {
	v, err := e.Memo(rc, Key{Kind: "compile", Program: program}, func(*RunCtx, *obs.Observer) (any, error) {
		p, err := workloads.Get(program)
		if err != nil {
			return nil, err
		}
		return workloads.Compile(p)
	})
	if err != nil {
		return nil, err
	}
	return v.(*workloads.Compiled), nil
}

// wsRunKey and cdDetuneKey name the WSRun and CDDetune memo entries.
func wsRunKey(program string, tau int) Key {
	return Key{Kind: "ws-run", Program: program, Policy: "WS", Params: fmt.Sprintf("tau=%d", tau)}
}

func cdDetuneKey(program string, set workloads.Set, minAlloc int, factors []float64) Key {
	params := setParams(set, minAlloc) + ",factors=" + fmtFactors(factors)
	return Key{Kind: "cd-detune", Program: program, Set: set.Name, Policy: "CD", Params: params}
}

// LRUSweep returns the program's all-allocations LRU curve, computed
// once per engine by one Mattson stack-distance pass over the trace.
func (e *Engine) LRUSweep(rc *RunCtx, program string) (*sweep.LRUCurve, error) {
	v, err := e.Memo(rc, Key{Kind: "lru-sweep", Program: program, Policy: "LRU"}, func(comp *RunCtx, _ *obs.Observer) (any, error) {
		c, err := e.Compiled(comp, program)
		if err != nil {
			return nil, err
		}
		return sweep.NewLRU(c.Trace)
	})
	if err != nil {
		return nil, err
	}
	return v.(*sweep.LRUCurve), nil
}

// WSSweep returns the program's working-set curve index (the interval
// histogram: PF(τ) and MemSum(τ) for every τ from one pass), computed
// once per engine.
func (e *Engine) WSSweep(rc *RunCtx, program string) (*sweep.WS, error) {
	v, err := e.Memo(rc, Key{Kind: "ws-sweep", Program: program, Policy: "WS"}, func(comp *RunCtx, _ *obs.Observer) (any, error) {
		c, err := e.Compiled(comp, program)
		if err != nil {
			return nil, err
		}
		return sweep.NewWS(c.Trace)
	})
	if err != nil {
		return nil, err
	}
	return v.(*sweep.WS), nil
}

// CDRun runs (once per engine and full parameterization) the CD policy
// over the program's trace under the given directive set.
func (e *Engine) CDRun(rc *RunCtx, program string, set workloads.Set, minAlloc int) (vmsim.Result, error) {
	k := Key{Kind: "cd-run", Program: program, Set: set.Name, Policy: "CD", Params: setParams(set, minAlloc)}
	v, err := e.Memo(rc, k, func(comp *RunCtx, o *obs.Observer) (any, error) {
		c, err := e.Compiled(comp, program)
		if err != nil {
			return nil, err
		}
		cd := policy.NewCD(set.Selector(), minAlloc)
		return vmsim.RunObserved(c.Trace, cd, o), nil
	})
	if err != nil {
		return vmsim.Result{}, err
	}
	return v.(vmsim.Result), nil
}

// WSRun returns the WS(tau) result for the program, once per engine and
// window: a point read off the one-pass grid engine, or, with an enabled
// observer, one instrumented replay of the full trace whose event stream
// audits against the result.
func (e *Engine) WSRun(rc *RunCtx, program string, tau int) (vmsim.Result, error) {
	v, err := e.Memo(rc, wsRunKey(program, tau), func(comp *RunCtx, o *obs.Observer) (any, error) {
		s, err := e.WSSweep(comp, program)
		if err != nil {
			return nil, err
		}
		if o.Enabled() {
			return e.wsObserved(comp, program, tau, o)
		}
		return s.Run(tau)
	})
	if err != nil {
		return vmsim.Result{}, err
	}
	return v.(vmsim.Result), nil
}

// wsObserved replays WS(tau) over the program's trace with events on.
func (e *Engine) wsObserved(comp *RunCtx, program string, tau int, o *obs.Observer) (vmsim.Result, error) {
	c, err := e.Compiled(comp, program)
	if err != nil {
		return vmsim.Result{}, err
	}
	return vmsim.RunObserved(c.Trace, policy.NewWS(tau), o), nil
}

// wsMin pairs the minimizing window with its result.
type wsMin struct {
	tau int
	res vmsim.Result
}

// WSMinST returns the working-set window minimizing space-time cost over
// the τ ladder (vmsim.DefaultTaus) and its full result, computed once
// per engine by at most two grid-engine traversals (sweep.WS.MinST).
// With an enabled observer the search itself stays silent: only the
// winning window is replayed instrumented, so the event stream carries
// the one WS run the table reports.
func (e *Engine) WSMinST(rc *RunCtx, program string) (int, vmsim.Result, error) {
	return e.WSMinSTWith(rc, program, nil)
}

// WSMinSTWith is WSMinST, sharing its memo entry, whose first grid pass
// also computes the windows extra returns, so later WSRun requests for
// them read memoized curve points instead of traversing the trace
// again. extra runs only when it can ride along: never with an enabled
// observer (WSRun then replays each window instrumented), and not when
// the entry was already computed. The result is the same either way.
func (e *Engine) WSMinSTWith(rc *RunCtx, program string, extra func(comp *RunCtx) ([]int, error)) (int, vmsim.Result, error) {
	v, err := e.Memo(rc, Key{Kind: "ws-min", Program: program, Policy: "WS"}, func(comp *RunCtx, o *obs.Observer) (any, error) {
		s, err := e.WSSweep(comp, program)
		if err != nil {
			return nil, err
		}
		var taus []int
		if extra != nil && !o.Enabled() {
			if taus, err = extra(comp); err != nil {
				return nil, err
			}
		}
		tau, res, err := s.MinST(taus...)
		if err != nil {
			return nil, err
		}
		if o.Enabled() {
			if res, err = e.wsObserved(comp, program, tau, o); err != nil {
				return nil, err
			}
		}
		return wsMin{tau, res}, nil
	})
	if err != nil {
		return 0, vmsim.Result{}, err
	}
	m := v.(wsMin)
	return m.tau, m.res, nil
}

// CDDetune runs the CD policy with every granted allocation scaled by
// each factor — the whole detune grid as one memoized artifact, stepped
// in lockstep through one trace traversal (sweep.Multi), or, with an
// enabled observer, replayed instrumented per factor in factor order.
// detune wraps the set's selector with the caller's scaling rule.
// Results are in factors order.
func (e *Engine) CDDetune(rc *RunCtx, program string, set workloads.Set, minAlloc int, factors []float64,
	detune func(policy.ArmSelector, float64) policy.ArmSelector) ([]vmsim.Result, error) {
	v, err := e.Memo(rc, cdDetuneKey(program, set, minAlloc, factors), func(comp *RunCtx, o *obs.Observer) (any, error) {
		c, err := e.Compiled(comp, program)
		if err != nil {
			return nil, err
		}
		if o.Enabled() {
			out := make([]vmsim.Result, len(factors))
			for i, f := range factors {
				cd := policy.NewCD(detune(set.Selector(), f), minAlloc)
				out[i] = vmsim.RunObserved(c.Trace, cd, o)
			}
			return out, nil
		}
		pols := make([]policy.Policy, len(factors))
		for i, f := range factors {
			pols[i] = policy.NewCD(detune(set.Selector(), f), minAlloc)
		}
		return sweep.Multi(c.Trace, pols)
	})
	if err != nil {
		return nil, err
	}
	return v.([]vmsim.Result), nil
}

// fmtFactors serializes a factor grid for a memo key.
func fmtFactors(factors []float64) string {
	var b strings.Builder
	for i, f := range factors {
		if i > 0 {
			b.WriteByte(':')
		}
		fmt.Fprintf(&b, "%g", f)
	}
	return b.String()
}

// ExplainRun builds (once per engine and full parameterization) the
// fault-attribution report for a variant: CD under the directive set
// plus tuned LRU and WS, each attributed site by site. The ledgers are
// immutable after construction, so sharing the memoized pointer is safe.
func (e *Engine) ExplainRun(rc *RunCtx, program string, set workloads.Set, minAlloc int) (*explain.Report, error) {
	k := Key{Kind: "explain", Program: program, Set: set.Name, Policy: "CD", Params: setParams(set, minAlloc)}
	v, err := e.Memo(rc, k, func(comp *RunCtx, _ *obs.Observer) (any, error) {
		c, err := e.Compiled(comp, program)
		if err != nil {
			return nil, err
		}
		return explain.Analyze(c.Trace, explain.Options{Selector: set.Selector(), MinAlloc: minAlloc})
	})
	if err != nil {
		return nil, err
	}
	return v.(*explain.Report), nil
}
