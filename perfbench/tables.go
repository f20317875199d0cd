package main

import (
	_ "embed"
	"fmt"
	"strings"

	"cdmm/internal/directive"
	"cdmm/internal/engine"
	"cdmm/internal/experiments"
	"cdmm/internal/fortran"
	"cdmm/internal/interp"
	"cdmm/internal/locality"
	"cdmm/internal/mem"
	"cdmm/internal/obs"
	"cdmm/internal/sem"
	"cdmm/internal/workloads"
)

// tablesExpected is `cdmm tables -j 1` as rendered when the benchmark
// was defined. It was cross-checked once against `cdmm tables -cellmode`
// (the per-cell vmsim oracle that bypasses sweep): identical bytes.
//
//go:embed testdata/tables.expected
var tablesExpected string

// tablesRefs is the number of page references the nine programs
// generate: the interpreter's whole output for one cold tables run.
const tablesRefs = 2627595

// cdMinAlloc is the CD minimum allocation the paper's tables use.
const cdMinAlloc = 2

// tablesOut is one tables operation's output.
type tablesOut struct {
	Text string `json:"text"`
	// Refs is the page references the child process generated; it starts
	// with an empty compile cache, so these were all interpreted there.
	Refs int64 `json:"refs"`
	// Reused reports that the engine used the traced run's own compiled
	// programs instead of compiling them again.
	Reused bool `json:"reused"`
}

// tablesSetup times the fixed cost every cold sample pays: starting a
// fresh process that initializes every package the job imports.
func tablesSetup(c *config) (*prep, error) {
	return &prep{
		again: func() (float64, error) {
			s, err := spawn(c, []string{"-child", "noop"})
			return s.wall, err
		},
		check: func(out *childOut) []string { return checkTables(tablesExpected, tablesRefs, out) },
	}, nil
}

// checkTables compares a tables operation's output to the expected
// rendering and reference count.
func checkTables(expected string, refs int64, out *childOut) []string {
	var bad []string
	t := out.Tables
	if t == nil {
		return []string{"tables: no output"}
	}
	if t.Text != expected {
		bad = append(bad, fmt.Sprintf("tables: output differs from the expected rendering at byte %d", firstDiff(t.Text, expected)))
	}
	if t.Refs != refs {
		bad = append(bad, fmt.Sprintf("tables: child generated %d refs, want %d", t.Refs, refs))
	}
	if out.Spans != nil && !t.Reused {
		bad = append(bad, "tables: traced run's compiled programs were not reused by the engine")
	}
	return bad
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// renderTables is `cdmm tables`: Tables 1-4, each followed by a blank
// line.
func renderTables(eng *engine.Engine) (string, error) {
	var b strings.Builder
	r1, err := experiments.Table1(eng)
	if err != nil {
		return "", err
	}
	b.WriteString(experiments.RenderTable1(r1) + "\n")
	r2, err := experiments.Table2(eng)
	if err != nil {
		return "", err
	}
	b.WriteString(experiments.RenderTable2(r2) + "\n")
	r3, err := experiments.Table3(eng)
	if err != nil {
		return "", err
	}
	b.WriteString(experiments.RenderTable3(r3) + "\n")
	r4, err := experiments.Table4(eng)
	if err != nil {
		return "", err
	}
	b.WriteString(experiments.RenderTable4(r4) + "\n")
	return b.String(), nil
}

// tablesOp runs one cold tables job on a one-worker engine, as
// `cdmm tables -j 1` does. Traced, it first makes every call the job
// depends on itself, each in its own span, so that the job's remaining
// time is the engine's and the renderer's own.
func tablesOp(_ *childArgs, rec *recorder) (childOut, error) {
	eng := engine.New(1)
	root := rec.begin("op")
	reused := true
	if rec != nil {
		var err error
		if reused, err = tablesPrecompute(eng, rec); err != nil {
			return childOut{}, err
		}
	}
	text, err := renderTables(eng)
	if err != nil {
		return childOut{}, err
	}
	var refs int64
	for _, name := range workloads.Names() {
		c, err := eng.Compiled(nil, name)
		if err != nil {
			return childOut{}, err
		}
		refs += int64(c.Trace.Refs)
	}
	rec.end(root, refs)
	return childOut{Refs: refs, Tables: &tablesOut{Text: text, Refs: refs, Reused: reused}}, nil
}

// tablesPrecompute makes, in spans, the layer calls the tables job
// depends on: the front end and interpreter per program (installed as
// the engine's compiled programs), the LRU and WS curves, the CD
// replays and the WS τ-grid points Tables 2-4 read. It reports whether
// the engine then serves the benchmark's compiled programs.
func tablesPrecompute(eng *engine.Engine, rec *recorder) (bool, error) {
	var programs []string
	compiled := map[string]*workloads.Compiled{}
	for _, v := range experiments.Table34Variants {
		if compiled[v.Program] != nil {
			continue
		}
		c, err := compileTraced(v.Program, rec)
		if err != nil {
			return false, err
		}
		_, err = eng.Memo(nil, engine.Key{Kind: "compile", Program: v.Program}, func(*engine.RunCtx, *obs.Observer) (any, error) {
			return c, nil
		})
		if err != nil {
			return false, err
		}
		compiled[v.Program] = c
		programs = append(programs, v.Program)
	}
	for _, p := range programs {
		refs := int64(compiled[p].Trace.Refs)
		s := rec.begin("sweep.lru")
		if _, err := eng.LRUSweep(nil, p); err != nil {
			return false, err
		}
		rec.end(s, refs)
		s = rec.begin("sweep.ws_hist")
		if _, err := eng.WSSweep(nil, p); err != nil {
			return false, err
		}
		rec.end(s, refs)
	}
	for _, v := range experiments.Table2Variants {
		s := rec.begin("sweep.ws_grid")
		if _, _, err := eng.WSMinST(nil, v.Program); err != nil {
			return false, err
		}
		rec.end(s, int64(compiled[v.Program].Trace.Refs))
	}
	for _, v := range experiments.Table34Variants {
		c := compiled[v.Program]
		set, ok := c.Program.Set(v.Set)
		if !ok {
			return false, fmt.Errorf("program %s has no set %s", v.Program, v.Set)
		}
		refs := int64(c.Trace.Refs)
		s := rec.begin("vmsim.cd")
		cd, err := eng.CDRun(nil, v.Program, set, cdMinAlloc)
		if err != nil {
			return false, err
		}
		rec.end(s, refs)
		ws, err := eng.WSSweep(nil, v.Program)
		if err != nil {
			return false, err
		}
		// Table 3's equal-memory window and Table 4's equal-fault window.
		tau4, _ := ws.MinTauForFaults(cd.Faults)
		for _, tau := range []int{ws.TauForMEM(cd.MEM()), tau4} {
			s = rec.begin("sweep.ws_grid")
			if _, err := eng.WSRun(nil, v.Program, tau); err != nil {
				return false, err
			}
			rec.end(s, refs)
		}
	}
	for _, p := range programs {
		c, err := eng.Compiled(nil, p)
		if err != nil || c != compiled[p] {
			return false, err
		}
	}
	return true, nil
}

// compileTraced is workloads.Compile with the front end and the
// interpreter in separate spans.
func compileTraced(name string, rec *recorder) (*workloads.Compiled, error) {
	p, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	s := rec.begin("frontend")
	ast, err := fortran.Parse(p.Source)
	if err != nil {
		return nil, err
	}
	info, err := sem.Analyze(ast)
	if err != nil {
		return nil, err
	}
	layout, err := mem.NewLayout(ast, mem.DefaultGeometry)
	if err != nil {
		return nil, err
	}
	analysis := locality.Analyze(info, layout, locality.DefaultParams)
	plan := directive.Build(analysis)
	rec.end(s, 0)
	s = rec.begin("interp")
	tr, err := interp.Run(info, interp.Config{Layout: layout, Plan: plan, Sites: true})
	if err != nil {
		return nil, err
	}
	rec.end(s, int64(tr.Refs))
	return &workloads.Compiled{
		Program: p, AST: ast, Info: info, Layout: layout,
		Analysis: analysis, Plan: plan, Trace: tr,
	}, nil
}
