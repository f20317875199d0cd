package interp

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/fortran"
	"cdmm/internal/locality"
	"cdmm/internal/mem"
	"cdmm/internal/sem"
	"cdmm/internal/trace"
)

// seedPrograms returns every Go string literal in the given files that
// parses as a FORTRAN program: the FuzzParse corpus, the nine workload
// sources (which package interp cannot import) and this package's test
// programs.
func seedPrograms(tb testing.TB, globs ...string) []string {
	tb.Helper()
	var out []string
	for _, g := range globs {
		files, err := filepath.Glob(g)
		if err != nil || len(files) == 0 {
			tb.Fatalf("no seed files match %s", g)
		}
		for _, name := range files {
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
			if err != nil {
				tb.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				if s, err := strconv.Unquote(lit.Value); err == nil {
					if _, err := fortran.Parse(s); err == nil {
						out = append(out, s)
					}
				}
				return true
			})
		}
	}
	return out
}

// workloadSources returns the nine workload programs' sources.
func workloadSources(tb testing.TB) []string {
	srcs := seedPrograms(tb, "../workloads/progs*.go")
	if len(srcs) != 9 {
		tb.Fatalf("found %d workload sources, want 9", len(srcs))
	}
	return srcs
}

// compareExecutors runs the compiled executor and the tree-walking oracle
// on one configuration and fails on any observable difference: the error
// text, the CDT3 encoding (events, side tables, site column), the side
// tables themselves and the R and V counters.
func compareExecutors(t *testing.T, info *sem.Info, cfg Config) {
	t.Helper()
	want, werr := oracleRun(info, cfg)
	got, gerr := Run(info, cfg)
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("plan=%v sites=%v: error %v, oracle %v", cfg.Plan != nil, cfg.Sites, gerr, werr)
	}
	if werr != nil {
		return
	}
	if got.Refs != want.Refs || got.Distinct != want.Distinct {
		t.Fatalf("plan=%v sites=%v: R=%d V=%d, oracle R=%d V=%d", cfg.Plan != nil, cfg.Sites, got.Refs, got.Distinct, want.Refs, want.Distinct)
	}
	for _, side := range []struct {
		name      string
		got, want any
	}{
		{"Sites", got.Sites, want.Sites},
		{"LockSets", got.LockSets, want.LockSets},
		{"UnlockSets", got.UnlockSets, want.UnlockSets},
		{"Allocs", got.Allocs, want.Allocs},
	} {
		if !reflect.DeepEqual(side.got, side.want) {
			t.Fatalf("plan=%v sites=%v: %s differ:\n got %v\nwant %v", cfg.Plan != nil, cfg.Sites, side.name, side.got, side.want)
		}
	}
	var gb, wb bytes.Buffer
	if _, err := trace.WriteCDT3(&gb, got, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteCDT3(&wb, want, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("plan=%v sites=%v: CDT3 bytes differ (%d vs oracle %d)", cfg.Plan != nil, cfg.Sites, gb.Len(), wb.Len())
	}
}

// frontEnd runs the compiler front end on src; ok is false when any
// stage rejects it.
func frontEnd(src string) (info *sem.Info, layout *mem.Layout, plan *directive.Plan, ok bool) {
	prog, err := fortran.Parse(src)
	if err != nil {
		return nil, nil, nil, false
	}
	if info, err = sem.Analyze(prog); err != nil {
		return nil, nil, nil, false
	}
	if layout, err = mem.NewLayout(prog, mem.DefaultGeometry); err != nil {
		return nil, nil, nil, false
	}
	return info, layout, directive.Build(locality.Analyze(info, layout, locality.DefaultParams)), true
}

// FuzzInterp differentially checks the compiled executor against the
// tree-walking oracle on arbitrary programs, under a small trace cap.
func FuzzInterp(f *testing.F) {
	for _, src := range seedPrograms(f, "../fortran/fuzz_test.go", "../workloads/progs*.go", "interp_test.go", "interp_more_test.go") {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		info, layout, plan, ok := frontEnd(src)
		if !ok {
			return
		}
		for _, p := range []*directive.Plan{nil, plan} {
			for _, sites := range []bool{false, true} {
				compareExecutors(t, info, Config{Layout: layout, Plan: p, MaxRefs: 4096, Sites: sites})
			}
		}
	})
}

// TestExecutorMatchesOracleOnWorkloads runs the nine workload programs to
// completion under both executors, configured as workloads.Compile runs
// them: the full traces the tables are computed from must agree byte for
// byte.
func TestExecutorMatchesOracleOnWorkloads(t *testing.T) {
	for _, src := range workloadSources(t) {
		info, layout, plan, ok := frontEnd(src)
		if !ok {
			t.Fatalf("workload rejected by the front end:\n%s", src)
		}
		compareExecutors(t, info, Config{Layout: layout, Plan: plan, Sites: true})
	}
}
