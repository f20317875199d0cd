package main

import (
	"path/filepath"
	"testing"
)

func TestCmdSweepCurveModes(t *testing.T) {
	for _, args := range [][]string{
		{"HWSCRT", "-policy", "lru", "-grid", "1,2,4,8"},
		{"HWSCRT", "-policy", "ws", "-grid", "1,10,100", "-json"},
		{"HWSCRT", "-policy", "fifo", "-grid", "2,4"},
		{"HWSCRT", "-policy", "cd", "-level", "2", "-grid", "0.5,1.0,2.0"},
	} {
		if err := cmdSweep(args); err != nil {
			t.Errorf("sweep %v: %v", args, err)
		}
	}
	if err := cmdSweep([]string{"HWSCRT", "-policy", "bogus"}); err == nil {
		t.Error("expected unknown-policy error")
	}
}

func TestCmdSweepStreamedTrace(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.cdt3")
	if err := cmdTrace([]string{"HWSCRT", "-o", out}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep([]string{out, "-policy", "lru", "-grid", "1,4,16"}); err != nil {
		t.Errorf("lru curve on streamed trace: %v", err)
	}
	if err := cmdSweep([]string{out, "-policy", "ws"}); err != nil {
		t.Errorf("ws curve on streamed trace: %v", err)
	}
	// CD needs the program's selector; a bare trace file cannot supply it.
	if err := cmdSweep([]string{out, "-policy", "cd"}); err == nil {
		t.Error("expected error for cd curve on a trace file")
	}
}
