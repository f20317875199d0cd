package trace

import (
	"cdmm/internal/directive"
	"cdmm/internal/mem"
)

// Builder records a trace whose length is unknown until it ends, as the
// interpreter's is. Appending to one growing slice copies each event
// about four times over (append grows a large slice by a quarter at a
// time) and can leave a quarter of the capacity unused. A Builder's
// trace instead sets full chunks of its event and site columns aside and
// joins them once, at their exact total size, when Trace is called. The
// events are the ones the same calls on a plain Trace would record.
type Builder struct {
	t *Trace
}

// chunkLen is the length at which a Builder's columns stop growing by
// reallocation and start a new chunk.
const chunkLen = 1 << 16

// NewBuilder returns a Builder for an empty trace.
func NewBuilder(name string) *Builder {
	t := New(name)
	t.chunked = true
	return &Builder{t: t}
}

// AddRef appends a page reference (see Trace.AddRef).
func (b *Builder) AddRef(p mem.Page) { b.t.AddRef(p) }

// AddAlloc appends an ALLOCATE execution (see Trace.AddAlloc).
func (b *Builder) AddAlloc(d *directive.Allocate) { b.t.AddAlloc(d) }

// AddLock appends a LOCK execution (see Trace.AddLock).
func (b *Builder) AddLock(pj, site int, pages []mem.Page) { b.t.AddLock(pj, site, pages) }

// AddUnlock appends an UNLOCK execution (see Trace.AddUnlock).
func (b *Builder) AddUnlock(pages []mem.Page) { b.t.AddUnlock(pages) }

// AddSite appends a site to the table (see Trace.AddSite).
func (b *Builder) AddSite(s Site) int32 { return b.t.AddSite(s) }

// SetSite makes id the current site (see Trace.SetSite).
func (b *Builder) SetSite(id int32) { b.t.SetSite(id) }

// Refs returns the number of page references appended so far.
func (b *Builder) Refs() int { return b.t.Refs }

// Trace joins the chunks and returns the finished trace. The Builder
// must not be used afterwards.
func (b *Builder) Trace() *Trace {
	t := b.t
	t.Events, t.evChunks = join(t.evChunks, t.Events), nil
	t.siteRuns, t.runChunks = join(t.runChunks, t.siteRuns), nil
	t.chunked = false
	b.t = nil
	return t
}

// room returns s ready for one more element. In a chunked trace a full
// slice of at least chunkLen elements is set aside in chunks and
// replaced by an empty chunk instead of being copied into a larger one.
func room[T any](chunked bool, s []T, chunks *[][]T) []T {
	if chunked && len(s) == cap(s) && len(s) >= chunkLen {
		*chunks = append(*chunks, s)
		return make([]T, 0, chunkLen)
	}
	return s
}

// join returns the chunks followed by tail as one slice of exactly their
// total length; tail itself when there are no chunks.
func join[T any](chunks [][]T, tail []T) []T {
	if len(chunks) == 0 {
		return tail
	}
	n := len(tail)
	for _, c := range chunks {
		n += len(c)
	}
	out := make([]T, 0, n)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return append(out, tail...)
}
