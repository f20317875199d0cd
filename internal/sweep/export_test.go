package sweep

import "cdmm/internal/vmsim"

// Lim exposes L, the largest interval the WS histogram counts densely.
func (s *WS) Lim() int { return s.lim }

// FromLRUCells rebuilds the curve from per-cell simulation results
// (results[m-1] is the replay at allocation m), so tests can compare a
// cell-built curve with the one-pass analysis through the same methods.
func FromLRUCells(results []vmsim.Result) *LRUCurve {
	s := &LRUCurve{V: len(results), faults: make([]int, len(results)+1)}
	if len(results) > 0 {
		s.Refs = results[0].Refs
	}
	for m := 1; m <= len(results); m++ {
		s.faults[m] = results[m-1].Faults
	}
	return s
}
