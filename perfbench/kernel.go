package main

import (
	"fmt"
	"time"

	"cdmm/internal/engine"
	"cdmm/internal/kernel"
)

const kernelTenants = 10000

// kernelConfig is the pressured kernel run: 10,000 seeded CD tenants on
// a 4× overcommitted pool under oscillating pressure, invariants
// checked.
func kernelConfig(seed uint64, tenants int) kernel.Config {
	return kernel.Config{
		Tenants:    tenants,
		Overcommit: 4,
		Seed:       seed,
		Checked:    true,
		Chaos:      kernel.Chaos{Oscillate: true, Intensity: 0.4},
	}
}

// kernelOut is one kernel operation's output.
type kernelOut struct {
	// Summary is the kernel's deterministic run summary.
	Summary      string `json:"summary"`
	Tenants      int    `json:"tenants"`
	Done         int64  `json:"done"`
	Starved      int64  `json:"starved"`
	Violations   int    `json:"violations"`
	Refs         int64  `json:"refs"`
	Suspends     int64  `json:"suspends"`
	ReclaimWaves int64  `json:"reclaimWaves"`
	SwapSignals  int64  `json:"swapSignals"`
}

// kernelSetup draws the seed's tenant population, the same draw
// kernel.Run makes, and keeps its total reference count for the checks.
func kernelSetup(c *config) (*prep, error) {
	var refs int64
	var first string
	return &prep{
		again: func() (float64, error) {
			t := time.Now()
			var n int64
			for id := 0; id < kernelTenants; id++ {
				spec := kernel.NewSynthSpec(c.seed, id, 1)
				n += int64(spec.Refs)
			}
			d := time.Since(t).Seconds()
			if refs != 0 && n != refs {
				return d, fmt.Errorf("kernel: population drew %d refs, earlier draw %d", n, refs)
			}
			refs = n
			return d, nil
		},
		check: func(out *childOut) []string {
			bad := checkKernel(kernelTenants, refs, out)
			if k := out.Kernel; k != nil {
				if first == "" {
					first = k.Summary
				} else if k.Summary != first {
					bad = append(bad, "kernel: summary differs from the run's first operation")
				}
			}
			return bad
		},
	}, nil
}

// checkKernel checks one kernel run: every tenant done, none starved,
// no invariant violated, and every drawn reference executed.
func checkKernel(tenants int, refs int64, out *childOut) []string {
	k := out.Kernel
	if k == nil {
		return []string{"kernel: no output"}
	}
	var bad []string
	if k.Violations != 0 {
		bad = append(bad, fmt.Sprintf("kernel: %d invariant violations", k.Violations))
	}
	if k.Starved != 0 {
		bad = append(bad, fmt.Sprintf("kernel: %d tenants starved", k.Starved))
	}
	if k.Tenants != tenants || k.Done != int64(tenants) {
		bad = append(bad, fmt.Sprintf("kernel: %d of %d tenants done, want %d", k.Done, k.Tenants, tenants))
	}
	if k.Refs != refs {
		bad = append(bad, fmt.Sprintf("kernel: executed %d refs, the population draws %d", k.Refs, refs))
	}
	return bad
}

// kernelOp runs the kernel on a one-worker engine.
func kernelOp(a *childArgs, rec *recorder) (childOut, error) {
	root := rec.begin("op")
	s := rec.begin("kernel")
	res, err := kernel.Run(kernelConfig(a.seed, kernelTenants), engine.New(1))
	if err != nil {
		return childOut{}, err
	}
	rec.end(s, res.Refs)
	rec.end(root, res.Refs)
	return childOut{Refs: res.Refs, Kernel: &kernelOut{
		Summary:      res.String(),
		Tenants:      res.Tenants,
		Done:         res.Done,
		Starved:      res.Starved,
		Violations:   len(res.Violations),
		Refs:         res.Refs,
		Suspends:     res.Suspends,
		ReclaimWaves: res.ReclaimWaves,
		SwapSignals:  res.SwapSignals,
	}}, nil
}
