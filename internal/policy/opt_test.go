package policy

import (
	"container/heap"
	"math/rand"
	"testing"

	"cdmm/internal/mem"
)

// boxedOPTHeap is the container/heap formulation optHeap replaced.
type boxedOPTHeap []optEntry

func (h boxedOPTHeap) Len() int           { return len(h) }
func (h boxedOPTHeap) Less(i, j int) bool { return h[i].next > h[j].next }
func (h boxedOPTHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedOPTHeap) Push(x any)        { *h = append(*h, x.(optEntry)) }
func (h *boxedOPTHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestOPTHeapMatchesContainerHeap drives the typed heap and
// container/heap through the same random pushes and pops, with next-use
// keys drawn from a small range so that ties are common: every pop must
// return the same entry, which is what keeps OPT's eviction order (and
// so its fault counts) unchanged.
func TestOPTHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var typed optHeap
	var boxed boxedOPTHeap
	for step := 0; step < 20000; step++ {
		if len(typed) > 0 && rng.Intn(3) == 0 {
			got, want := typed.pop(), heap.Pop(&boxed).(optEntry)
			if got != want {
				t.Fatalf("step %d: pop = %+v, container/heap %+v", step, got, want)
			}
			continue
		}
		e := optEntry{page: mem.Page(step), next: rng.Intn(8)}
		typed.push(e)
		heap.Push(&boxed, e)
	}
	for len(typed) > 0 {
		if got, want := typed.pop(), heap.Pop(&boxed).(optEntry); got != want {
			t.Fatalf("drain: pop = %+v, container/heap %+v", got, want)
		}
	}
}
