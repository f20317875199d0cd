package sweep_test

import (
	"testing"

	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/sweep"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
)

// FuzzSweep feeds arbitrary byte strings as reference traces plus a
// fuzzer-chosen τ/capacity and checks the one-pass curve engines against
// per-cell replay. Any divergence is a real bug in one of the engines.
func FuzzSweep(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 0, 3, 3, 2, 1, 0}, uint8(3))
	f.Add([]byte{5, 5, 5, 5}, uint8(1))
	f.Add([]byte{0}, uint8(200))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(7))
	// Page 0 recurs after 300 references: an interval beyond the WS
	// histogram's dense limit.
	long := []byte{0}
	for i := 0; i < 300; i++ {
		long = append(long, byte(1+i%3))
	}
	f.Add(append(long, 0, 5, 0), uint8(40))
	f.Fuzz(func(t *testing.T, refs []byte, knob uint8) {
		if len(refs) == 0 || len(refs) > 4096 {
			return
		}
		tr := trace.New("fuzz")
		for _, b := range refs {
			tr.AddRef(mem.Page(b % 64))
		}

		lru, err := sweep.NewLRU(tr)
		if err != nil {
			t.Fatal(err)
		}
		m := int(knob)%lru.V + 1
		cell := vmsim.Run(tr.StripDirectives(), policy.NewLRU(m))
		if got := lru.Result(m); got != cell {
			t.Fatalf("LRU m=%d: curve %+v != cell %+v", m, got, cell)
		}

		ws, err := sweep.NewWS(tr)
		if err != nil {
			t.Fatal(err)
		}
		tau := int(knob) + 1
		curve, err := ws.Run(tau)
		if err != nil {
			t.Fatal(err)
		}
		wsCell := vmsim.Run(tr.RefsOnly(), policy.NewWS(tau))
		if curve != wsCell {
			t.Fatalf("WS tau=%d: curve %+v != cell %+v", tau, curve, wsCell)
		}
		// Histogram closed forms on both sides of the dense limit L.
		for _, tt := range []int{tau, ws.Lim(), ws.Lim() + 1} {
			cell := vmsim.Run(tr.RefsOnly(), policy.NewWS(tt))
			if got := ws.Faults(tt); got != cell.Faults {
				t.Fatalf("WS tau=%d (L=%d): histogram faults %d != cell %d", tt, ws.Lim(), got, cell.Faults)
			}
			if got := ws.MemSum(tt); got != cell.MemSum {
				t.Fatalf("WS tau=%d (L=%d): histogram MemSum %v != cell %v", tt, ws.Lim(), got, cell.MemSum)
			}
		}

		// The pruned ladder search, with and without extra windows in its
		// first pass, is a strict-< scan of per-cell replays over the
		// whole ladder, and every extra window is its own replay.
		bestTau, best := 0, vmsim.Result{}
		for _, tt := range vmsim.DefaultTaus(tr.Refs) {
			r := vmsim.Run(tr.RefsOnly(), policy.NewWS(tt))
			if bestTau == 0 || r.SpaceTime < best.SpaceTime {
				bestTau, best = tt, r
			}
		}
		extra := []int{tau, ws.Lim() + 1, ws.TauForMEM(wsCell.MEM() / 2)}
		for _, ex := range [][]int{nil, extra} {
			s, err := sweep.NewWS(tr)
			if err != nil {
				t.Fatal(err)
			}
			gotTau, got, err := s.MinST(ex...)
			if err != nil {
				t.Fatal(err)
			}
			if gotTau != bestTau || got != best {
				t.Fatalf("WS MinST(%v) = (%d, %+v), ladder scan (%d, %+v)", ex, gotTau, got, bestTau, best)
			}
			for _, tt := range ex {
				r, err := s.Run(tt)
				if err != nil {
					t.Fatal(err)
				}
				if cell := vmsim.Run(tr.RefsOnly(), policy.NewWS(tt)); r != cell {
					t.Fatalf("WS MinST extra tau=%d: %+v != cell %+v", tt, r, cell)
				}
			}
		}

		caps := []int{1, m}
		fifo, err := sweep.FIFOCurve(tr, caps)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range caps {
			if cell := vmsim.Run(tr, policy.NewFIFO(c)); fifo[i] != cell {
				t.Fatalf("FIFO m=%d: lockstep %+v != cell %+v", c, fifo[i], cell)
			}
		}
	})
}
