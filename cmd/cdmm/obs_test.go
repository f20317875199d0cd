package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdmm/internal/core"
	"cdmm/internal/experiments"
	"cdmm/internal/obs"
)

// TestCmdSimEventsMatchResult is the acceptance check for the event
// trace: `cdmm sim HWSCRT -policy cd -events out.jsonl` must write valid
// JSONL whose replayed aggregates (fault count, mean resident set) equal
// the simulation result exactly.
func TestCmdSimEventsMatchResult(t *testing.T) {
	dir := t.TempDir()
	ev := filepath.Join(dir, "out.jsonl")
	met := filepath.Join(dir, "metrics.json")
	err := cmdSim([]string{"HWSCRT", "-policy", "cd", "-level", "2", "-events", ev, "-metrics", met})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(ev)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatalf("event file is not valid JSONL: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events written")
	}
	refs, faults, memSum := obs.Replay(events)

	// Reference run of the same simulation, un-instrumented.
	p, err := loadProgram("HWSCRT")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunCD(core.CDOptions{Level: 2})
	if err != nil {
		t.Fatal(err)
	}
	if refs != res.Refs || faults != res.Faults {
		t.Errorf("replayed refs/faults = %d/%d, result %d/%d", refs, faults, res.Refs, res.Faults)
	}
	if mean := memSum / float64(refs); mean != res.MEM() {
		t.Errorf("replayed mean resident = %v, result %v", mean, res.MEM())
	}

	raw, err := os.ReadFile(met)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if snap.Counters["faults"] != int64(res.Faults) {
		t.Errorf("metrics faults = %d, result %d", snap.Counters["faults"], res.Faults)
	}
}

func TestCmdSimProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	heap := filepath.Join(dir, "heap.pprof")
	err := cmdSim([]string{"HWSCRT", "-policy", "lru", "-m", "16", "-cpuprofile", cpu, "-memprofile", heap})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, heap} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", path, err)
		}
	}
}

func TestCmdReplayEvents(t *testing.T) {
	dir := t.TempDir()
	trc := filepath.Join(dir, "t.trc")
	if err := cmdTrace([]string{"HWSCRT", "-o", trc}); err != nil {
		t.Fatal(err)
	}
	ev := filepath.Join(dir, "replay.jsonl")
	if err := cmdReplay([]string{trc, "-policy", "ws", "-tau", "300", "-events", ev}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(ev)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil || len(events) == 0 {
		t.Fatalf("replay wrote no usable events: %v (%d events)", err, len(events))
	}
}

func TestCmdProfile(t *testing.T) {
	if err := cmdProfile([]string{"HWSCRT", "-buckets", "32"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdProfile([]string{}); err == nil {
		t.Error("expected missing-argument error")
	}
}

func TestCmdTablesObsFlags(t *testing.T) {
	dir := t.TempDir()
	ev := filepath.Join(dir, "t1.jsonl")
	if err := cmdTables("table1", []string{"-events", ev}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(ev); err != nil || fi.Size() == 0 {
		t.Errorf("table1 event file missing or empty: %v", err)
	}
}

// TestCmdTablesEventsDeterministicAcrossJ regenerates Table 1 with the
// JSONL event trace enabled at -j 1 and -j 8 and requires the two files
// to be byte-identical: the engine buffers per-run events and merges
// them in declaration order, so parallelism never reorders the stream.
func TestCmdTablesEventsDeterministicAcrossJ(t *testing.T) {
	dir := t.TempDir()
	seq := filepath.Join(dir, "seq.jsonl")
	par := filepath.Join(dir, "par.jsonl")
	if err := cmdTables("table1", []string{"-j", "1", "-events", seq}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTables("table1", []string{"-j", "8", "-events", par}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("no events written")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("event streams differ between -j 1 (%d bytes) and -j 8 (%d bytes)", len(a), len(b))
	}
}

// TestCmdTable2EventsContract: `table2 -events` describes the table, not
// the search. The stream holds one CD run and one WS run (the minimum's
// winning window) per row, every run audits exactly against its end
// marker, the stream is byte-identical at -j 1 and -j 8, and the table
// prints exactly as it does without -events.
func TestCmdTable2EventsContract(t *testing.T) {
	dir := t.TempDir()
	plain := captureStdout(t, func() error { return cmdTables("table2", []string{"-j", "2"}) })
	var streams [][]byte
	for _, j := range []string{"1", "8"} {
		path := filepath.Join(dir, "t2-j"+j+".jsonl")
		out := captureStdout(t, func() error { return cmdTables("table2", []string{"-j", j, "-events", path}) })
		if out != plain {
			t.Errorf("-j %s -events table differs from the plain one:\n%s\nvs\n%s", j, out, plain)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, raw)
	}
	if !bytes.Equal(streams[0], streams[1]) {
		t.Errorf("event streams differ between -j 1 (%d bytes) and -j 8 (%d bytes)", len(streams[0]), len(streams[1]))
	}

	events, err := obs.ReadEvents(bytes.NewReader(streams[0]))
	if err != nil {
		t.Fatal(err)
	}
	var runs [][]obs.Event
	for i, ev := range events {
		if ev.Kind == obs.KindRun {
			runs = append(runs, nil)
		} else if len(runs) == 0 {
			t.Fatalf("event %d (%q) precedes the first run", i, ev.Kind)
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], ev)
	}
	perPolicy := map[string]int{}
	for i, run := range runs {
		end := run[len(run)-1]
		if end.Kind != obs.KindEnd {
			t.Fatalf("run %d (%s) does not close with an end marker", i, run[0].Label)
		}
		memSum := math.Round(end.Mem * float64(end.Refs))
		if err := obs.AuditReplay(run, end.Refs, end.Faults, memSum); err != nil {
			t.Errorf("run %d (%s): %v", i, run[0].Label, err)
		}
		policy, _, _ := strings.Cut(run[0].Label, "(")
		perPolicy[policy]++
	}
	rows := len(experiments.Table2Variants)
	if len(runs) != 2*rows || perPolicy["CD"] != rows || perPolicy["WS"] != rows {
		t.Errorf("stream runs by policy %v, want %d CD and %d WS", perPolicy, rows, rows)
	}
}

// TestCmdTableMetricsDeterministicAcrossRuns regenerates Table 1 with
// an event trace and a metrics snapshot at -j 2, twice: the snapshots
// must be byte-identical. The per-run gauges (max_resident,
// virtual_time, mem_avg) describe one simulation, so a table command,
// whose runs share the registry and finish in any order at -j > 1, must
// not carry them at all; sim and replay set them from their single
// result. (Table 1 has nine such runs.)
func TestCmdTableMetricsDeterministicAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	var snaps [2][]byte
	for i := range snaps {
		ev := filepath.Join(dir, fmt.Sprintf("e%d.jsonl", i))
		met := filepath.Join(dir, fmt.Sprintf("m%d.json", i))
		if err := cmdTables("table1", []string{"-j", "2", "-events", ev, "-metrics", met}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(met)
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = raw
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Errorf("metrics snapshots differ between two -j 2 runs:\n%s\n%s", snaps[0], snaps[1])
	}
	var snap struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(snaps[0], &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	for _, g := range []string{"max_resident", "virtual_time", "mem_avg"} {
		if v, ok := snap.Gauges[g]; ok {
			t.Errorf("table1 metrics carry the single-run gauge %s = %v", g, v)
		}
	}
}

// TestCmdSimMetricsGauges checks that a single simulation still reports
// its result in the per-run gauges.
func TestCmdSimMetricsGauges(t *testing.T) {
	met := filepath.Join(t.TempDir(), "m.json")
	if err := cmdSim([]string{"HWSCRT", "-policy", "cd", "-level", "2", "-metrics", met}); err != nil {
		t.Fatal(err)
	}
	p, err := loadProgram("HWSCRT")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunCD(core.CDOptions{Level: 2})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(met)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	want := map[string]float64{
		"max_resident": float64(res.MaxResident),
		"virtual_time": float64(res.VirtualTime),
		"mem_avg":      res.MEM(),
	}
	for g, v := range want {
		if got, ok := snap.Gauges[g]; !ok || got != v {
			t.Errorf("gauge %s = %v (present %v), want %v", g, got, ok, v)
		}
	}
}
