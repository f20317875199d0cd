package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestCorruptedExpectationFails shows that every output check can fail:
// each workload's real output passes, and the same output checked
// against a corrupted expected value is reported as a failure.
func TestCorruptedExpectationFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one operation of every workload")
	}
	t.Run("tables", func(t *testing.T) {
		out, err := tablesOp(&childArgs{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bad := checkTables(tablesExpected, tablesRefs, &out); len(bad) > 0 {
			t.Fatalf("real output fails: %v", bad)
		}
		corrupt := []byte(tablesExpected)
		corrupt[len(corrupt)/2] ^= 1
		if bad := checkTables(string(corrupt), tablesRefs, &out); len(bad) == 0 {
			t.Error("corrupted expected rendering passed")
		}
		if bad := checkTables(tablesExpected, tablesRefs+1, &out); len(bad) == 0 {
			t.Error("wrong expected reference count passed")
		}
	})
	t.Run("stream", func(t *testing.T) {
		c := &config{seed: 3, dir: t.TempDir()}
		seq, err := streamSequence(c.seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		p, err := streamPrep(c, seq)
		if err != nil {
			t.Fatal(err)
		}
		defer p.cleanup()
		if _, err := p.again(); err != nil {
			t.Fatal(err)
		}
		rec := newRecorder("stream", c.seed)
		out, err := streamOp(&childArgs{input: p.args[1]}, rec)
		if err != nil {
			t.Fatal(err)
		}
		out.Spans = rec.spans
		if bad := p.check(&out); len(bad) > 0 {
			t.Fatalf("real output fails: %v", bad)
		}
		for name, corrupt := range map[string]func(s *streamOut){
			"curve":  func(s *streamOut) { s.CurveLRU.Faults++ },
			"hist":   func(s *streamOut) { s.HistWSFaults++ },
			"header": func(s *streamOut) { s.HeaderRefs++ },
			"walk":   func(s *streamOut) { s.WalkRefs-- },
		} {
			bad := *out.Stream
			corrupt(&bad)
			o := out
			o.Stream = &bad
			if len(p.check(&o)) == 0 {
				t.Errorf("corrupted %s passed", name)
			}
		}
	})
	t.Run("kernel", func(t *testing.T) {
		c := &config{seed: 2}
		p, err := kernelSetup(c)
		if err == nil {
			_, err = p.again()
		}
		if err != nil {
			t.Fatal(err)
		}
		out, err := kernelOp(&childArgs{seed: c.seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bad := p.check(&out); len(bad) > 0 {
			t.Fatalf("real output fails: %v", bad)
		}
		for name, corrupt := range map[string]func(k *kernelOut){
			"summary":    func(k *kernelOut) { k.Summary += " " },
			"violations": func(k *kernelOut) { k.Violations++ },
			"starved":    func(k *kernelOut) { k.Starved++ },
			"done":       func(k *kernelOut) { k.Done-- },
			"refs":       func(k *kernelOut) { k.Refs++ },
		} {
			bad := *out.Kernel
			corrupt(&bad)
			o := out
			o.Kernel = &bad
			if len(p.check(&o)) == 0 {
				t.Errorf("corrupted %s passed", name)
			}
		}
	})
}

// TestFailedOperationIsCounted shows a failed check reaches the result
// line.
func TestFailedOperationIsCounted(t *testing.T) {
	r := &report{workload: "kernel", cfg: &config{}, prep: &prep{}, samples: []sample{
		{wall: 1, out: childOut{Refs: 10}},
		{wall: 1, out: childOut{Refs: 10}, problems: []string{"kernel: summary differs"}},
	}}
	res := result([]*report{r}, false)
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Fatalf("result = %+v, want 1 of 2 failed and not correct", res)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json names exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range benchWorkloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		var g, w []metricDef
		for _, m := range got {
			g = append(g, metricDef{m.Name, m.Unit})
		}
		w = append(w, defs...)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s metrics %v, program reports %v", kind, g, w)
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles = %v %v %v, want 0.5 2 3.5", q1, q2, q3)
	}
}
