package policy

import (
	"fmt"

	"cdmm/internal/mem"
)

// OPT is Belady's optimal fixed-allocation replacement policy: on a fault
// with a full partition, it evicts the resident page whose next use lies
// farthest in the future. It requires the full reference string up front
// and serves as an oracle lower bound in the ablation experiments.
type OPT struct {
	noDirectives
	frames int
	// next[i] is the position of the next reference to the same page
	// after position i (len(refs) if none).
	refs []mem.Page
	next []int
	pos  int

	resident map[mem.Page]int // page -> its current next-use position
	h        optHeap          // max-heap on next-use with lazy deletion
}

type optEntry struct {
	page mem.Page
	next int
}

// optHeap is a binary max-heap on next use. It moves entries exactly as
// container/heap does (sift-up on push; swap the root to the end and
// sift down on pop), so entries with equal next uses leave in the same
// order, but stores them unboxed: container/heap's interface costs an
// allocation per reference.
type optHeap []optEntry

func (h optHeap) less(i, j int) bool { return h[i].next > h[j].next }

func (h *optHeap) push(e optEntry) {
	*h = append(*h, e)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *optHeap) pop() optEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s.less(j2, j) {
			j = j2 // right child
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	e := s[n]
	*h = s[:n]
	return e
}

// NewOPT builds the oracle for the given reference string and allocation.
func NewOPT(refs []mem.Page, frames int) *OPT {
	if frames < 1 {
		frames = 1
	}
	p := &OPT{frames: frames, refs: refs}
	p.precompute()
	p.resident = map[mem.Page]int{}
	return p
}

func (p *OPT) precompute() {
	n := len(p.refs)
	p.next = make([]int, n)
	last := map[mem.Page]int{}
	for i := n - 1; i >= 0; i-- {
		pg := p.refs[i]
		if j, ok := last[pg]; ok {
			p.next[i] = j
		} else {
			p.next[i] = n
		}
		last[pg] = i
	}
}

// Name implements Policy.
func (p *OPT) Name() string { return fmt.Sprintf("OPT(m=%d)", p.frames) }

// Ref implements Policy. The supplied page must match the precomputed
// reference string position by position.
func (p *OPT) Ref(pg mem.Page) bool {
	if p.pos >= len(p.refs) || p.refs[p.pos] != pg {
		panic(fmt.Sprintf("policy: OPT replayed out of order at position %d", p.pos))
	}
	nxt := p.next[p.pos]
	p.pos++

	if _, ok := p.resident[pg]; ok {
		p.resident[pg] = nxt
		p.h.push(optEntry{page: pg, next: nxt})
		return false
	}
	if len(p.resident) >= p.frames {
		p.evict()
	}
	p.resident[pg] = nxt
	p.h.push(optEntry{page: pg, next: nxt})
	return true
}

// evict removes the resident page with the farthest next use, skipping
// stale heap entries.
func (p *OPT) evict() {
	for len(p.h) > 0 {
		e := p.h.pop()
		if cur, ok := p.resident[e.page]; ok && cur == e.next {
			delete(p.resident, e.page)
			return
		}
	}
	// Heap exhausted without finding a victim: evict any resident page.
	for pg := range p.resident {
		delete(p.resident, pg)
		return
	}
}

// Resident implements Policy.
func (p *OPT) Resident() int { return len(p.resident) }

// Charged implements Charger: the whole fixed partition is allocated.
func (p *OPT) Charged() int { return p.frames }

// Reset implements Policy.
func (p *OPT) Reset() {
	p.pos = 0
	p.resident = map[mem.Page]int{}
	p.h = nil
}
