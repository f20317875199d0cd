package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported from the
// untraced operations (BENCHMARK.json lists the same names).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"refs_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-layer metrics of the traced operations. A layer
// the workload bypasses reads 0.
var perLayer = []metricDef{
	{"frontend.s", "s"},
	{"interp.s", "s"},
	{"interp.ns_per_ref", "ns/ref"},
	{"interp.alloc_bytes_per_ref", "B/ref"},
	{"trace.s", "s"},
	{"trace.decode_ns_per_ref", "ns/ref"},
	{"trace.encode_ns_per_ref", "ns/ref"},
	{"trace.bytes_per_ref", "B/ref"},
	{"vmsim.s", "s"},
	{"vmsim.lru_ns_per_ref", "ns/ref"},
	{"vmsim.ws_ns_per_ref", "ns/ref"},
	{"vmsim.cd_ns_per_ref", "ns/ref"},
	{"sweep.s", "s"},
	{"sweep.ws_grid_s", "s"},
	{"sweep.lru_ns_per_ref", "ns/ref"},
	{"sweep.ws_hist_ns_per_ref", "ns/ref"},
	{"experiments.residual_s", "s"},
	{"kernel.s", "s"},
	{"kernel.ns_per_ref", "ns/ref"},
	{"kernel.suspends", "count"},
	{"kernel.reclaim_waves", "count"},
	{"kernel.swap_signals", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_bytes", "B"},
	{"tracing.overhead_s", "s"},
}

// uncoveredLayer names the layer an operation's time outside every
// layer span is charged to. For tables that time is the engine's memo
// and plan and the renderer: the experiments layer.
func uncoveredLayer(workload string) string {
	if workload == "tables" {
		return "experiments"
	}
	return "uncovered"
}

// layerMetrics derives the per-layer metrics of one traced operation
// from its spans.
func layerMetrics(workload string, out *childOut) map[string]float64 {
	sp := out.Spans
	self := layerSelf(selfTimes(sp, uncoveredLayer(workload)))
	m := map[string]float64{
		"frontend.s":               self["frontend"],
		"interp.s":                 self["interp"],
		"interp.ns_per_ref":        nsPerRef(sp, "interp"),
		"trace.s":                  self["trace"],
		"trace.decode_ns_per_ref":  nsPerRef(sp, "trace.decode"),
		"vmsim.s":                  self["vmsim"],
		"vmsim.lru_ns_per_ref":     nsPerRef(sp, "vmsim.lru"),
		"vmsim.ws_ns_per_ref":      nsPerRef(sp, "vmsim.ws"),
		"vmsim.cd_ns_per_ref":      nsPerRef(sp, "vmsim.cd"),
		"sweep.s":                  self["sweep"],
		"sweep.lru_ns_per_ref":     nsPerRef(sp, "sweep.lru"),
		"sweep.ws_hist_ns_per_ref": nsPerRef(sp, "sweep.ws_hist"),
		"experiments.residual_s":   self["experiments"],
		"kernel.s":                 self["kernel"],
		"kernel.ns_per_ref":        nsPerRef(sp, "kernel"),
	}
	m["sweep.ws_grid_s"], _ = total(sp, "sweep.ws_grid")
	if _, refs := total(sp, "interp"); refs > 0 {
		m["interp.alloc_bytes_per_ref"] = float64(allocOf(sp, "interp")) / float64(refs)
	}
	if k := out.Kernel; k != nil {
		m["kernel.suspends"] = float64(k.Suspends)
		m["kernel.reclaim_waves"] = float64(k.ReclaimWaves)
		m["kernel.swap_signals"] = float64(k.SwapSignals)
	}
	if r := root(sp); r != nil {
		m["runtime.gc_cycles"] = float64(r.GCCycles)
		m["runtime.alloc_bytes"] = float64(r.AllocBytes)
	}
	return m
}

// report is one workload's run.
type report struct {
	workload string
	cfg      *config
	prep     *prep
	setup    []float64
	samples  []sample
}

func (r *report) failed() int {
	n := 0
	for _, s := range r.samples {
		if len(s.problems) > 0 {
			n++
		}
	}
	return n
}

// series collects one value per completed operation of the given kind.
func (r *report) series(traced bool, f func(*sample) float64) []float64 {
	var xs []float64
	for i := range r.samples {
		s := &r.samples[i]
		if s.traced == traced && s.out.Refs > 0 {
			xs = append(xs, f(s))
		}
	}
	return xs
}

// endToEndSeries returns each end-to-end metric's values.
func (r *report) endToEndSeries() map[string][]float64 {
	return map[string][]float64{
		"wall_s":      r.series(false, func(s *sample) float64 { return s.wall }),
		"refs_per_s":  r.series(false, func(s *sample) float64 { return float64(s.out.Refs) / s.wall }),
		"setup_s":     r.setup,
		"peak_rss_mb": r.series(false, func(s *sample) float64 { return float64(s.out.PeakRSSKiB) / 1024 }),
	}
}

// layerSeries returns each per-layer metric's values over the traced
// operations.
func (r *report) layerSeries() map[string][]float64 {
	out := map[string][]float64{}
	for i := range r.samples {
		s := &r.samples[i]
		if !s.traced || s.out.Refs == 0 {
			continue
		}
		for k, v := range layerMetrics(r.workload, &s.out) {
			out[k] = append(out[k], v)
		}
	}
	if r.prep.layers != nil {
		for k, v := range r.prep.layers() {
			out[k] = []float64{v}
		}
	}
	traced := r.series(true, func(s *sample) float64 { return s.wall })
	untraced := r.series(false, func(s *sample) float64 { return s.wall })
	if len(traced) > 0 && len(untraced) > 0 {
		out["tracing.overhead_s"] = []float64{median(traced) - median(untraced)}
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func medians(defs []metricDef, series map[string][]float64) map[string]metric {
	out := map[string]metric{}
	for _, d := range defs {
		out[d.name] = metric{Value: median(series[d.name]), Unit: d.unit}
	}
	return out
}

// print writes the run's human-readable summary.
func (r *report) print(w io.Writer) {
	c := r.cfg
	traced := len(r.series(true, func(*sample) float64 { return 0 }))
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g: %d operations (%d traced), %d failed\n",
		r.workload, c.seed, c.seconds, len(r.samples), traced, r.failed())
	for i, s := range r.samples {
		for _, p := range s.problems {
			fmt.Fprintf(w, "  FAIL operation %d: %s\n", i+1, p)
		}
	}
	es := r.endToEndSeries()
	for _, d := range endToEnd {
		printQuartiles(w, d, es[d.name])
	}
	fmt.Fprintf(w, "  %-26s %.4g (%d failed / %d attempted)\n", "error_rate", float64(r.failed())/float64(len(r.samples)), r.failed(), len(r.samples))
	if !c.trace {
		return
	}
	ls := r.layerSeries()
	self := map[string]float64{}
	for i := range r.samples {
		s := &r.samples[i]
		if !s.traced || s.out.Refs == 0 {
			continue
		}
		for k, v := range selfTimes(s.out.Spans, uncoveredLayer(r.workload)) {
			self[k] += v / float64(traced)
		}
	}
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	fmt.Fprintf(w, "  self time by span, mean of %d traced operations (sums to the traced wall %.4g s):\n", traced, sum)
	for _, k := range sortedNames(self) {
		fmt.Fprintf(w, "    %-14s %9.4f s %6.1f%%\n", k, self[k], 100*self[k]/sum)
	}
	tw := median(r.series(true, func(s *sample) float64 { return s.wall }))
	uw := median(r.series(false, func(s *sample) float64 { return s.wall }))
	fmt.Fprintf(w, "  tracing overhead: traced %.4f s - untraced %.4f s = %+.4f s (process walls, medians)\n", tw, uw, tw-uw)
	for _, d := range perLayer {
		printQuartiles(w, d, ls[d.name])
	}
	fmt.Fprintf(w, "  spans: %s\n", r.spanPath())
}

func printQuartiles(w io.Writer, d metricDef, xs []float64) {
	q1, q2, q3 := quartiles(xs)
	fmt.Fprintf(w, "  %-26s %-12.6g %-7s median; q1 %.6g q3 %.6g n=%d\n", d.name, q2, d.unit, q1, q3, len(xs))
}

func (r *report) spanPath() string {
	return filepath.Join(r.cfg.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, r.cfg.seed))
}

// writeSpans writes every span of the run, one JSON object a line, with
// op set to the operation's index (-1 for set-up).
func (r *report) writeSpans() error {
	f, err := os.Create(r.spanPath())
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type opSpan struct {
		Op int `json:"op"`
		span
	}
	var setupSpans []span
	if r.prep.rec != nil {
		setupSpans = r.prep.rec.spans
	}
	for _, s := range setupSpans {
		if err := enc.Encode(opSpan{-1, s}); err != nil {
			f.Close()
			return err
		}
	}
	for i := range r.samples {
		for _, s := range r.samples[i].out.Spans {
			if err := enc.Encode(opSpan{i, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchResult is the last line the benchmark prints.
type benchResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result merges the workloads' reports; with more than one workload the
// metric names are prefixed with the workload's.
func result(reps []*report, traced bool) benchResult {
	res := benchResult{Metrics: map[string]metric{}}
	for _, r := range reps {
		res.Attempted += len(r.samples)
		res.Failed += r.failed()
		var ms map[string]metric
		if traced {
			ms = medians(perLayer, r.layerSeries())
		} else {
			ms = medians(endToEnd, r.endToEndSeries())
		}
		for k, v := range ms {
			if len(reps) > 1 {
				k = r.workload + "." + k
			}
			res.Metrics[k] = v
		}
	}
	res.Correct = res.Attempted > 0 && res.Failed == 0
	return res
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method); a single value is all three.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}
