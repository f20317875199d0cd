package main

import (
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans are recorded by the
// benchmark around its own calls into each layer's public functions;
// the program itself is not instrumented.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for the operation's root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Start and End are nanoseconds since the recording process's clock
	// origin.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Refs is the number of page references the call processed.
	Refs int64 `json:"refs"`
	// Streamed marks a call that decoded its references from a CDT3
	// file; its decode share is attributed to the trace layer.
	Streamed bool `json:"streamed,omitempty"`
	// AllocBytes and GCCycles are the process-wide heap allocation and
	// completed GC cycles during the span.
	AllocBytes uint64 `json:"allocBytes"`
	GCCycles   uint64 `json:"gcCycles"`
}

func (s *span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// recorder keeps spans in memory. A nil recorder records nothing, so
// untraced operations pay one nil check per call site.
type recorder struct {
	workload string
	seed     uint64
	t0       time.Time
	spans    []span
	stack    []int
	samples  []metrics.Sample
}

func newRecorder(workload string, seed uint64) *recorder {
	return &recorder{
		workload: workload,
		seed:     seed,
		t0:       time.Now(),
		samples: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/cycles/total:gc-cycles"},
		},
	}
}

func (r *recorder) runtimeCounters() (alloc, gcs uint64) {
	metrics.Read(r.samples)
	return r.samples[0].Value.Uint64(), r.samples[1].Value.Uint64()
}

// begin opens a span as a child of the innermost open one and returns
// its handle for end.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	alloc, gcs := r.runtimeCounters()
	r.spans = append(r.spans, span{
		ID: len(r.spans), Parent: parent, Name: name,
		Workload: r.workload, Seed: r.seed,
		AllocBytes: alloc, GCCycles: gcs,
		Start: int64(time.Since(r.t0)),
	})
	r.stack = append(r.stack, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes the span opened as id, recording the references it
// processed.
func (r *recorder) end(id int, refs int64) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	s.End = int64(time.Since(r.t0))
	alloc, gcs := r.runtimeCounters()
	s.AllocBytes = alloc - s.AllocBytes
	s.GCCycles = gcs - s.GCCycles
	s.Refs = refs
	r.stack = r.stack[:len(r.stack)-1]
}

// endStreamed is end for a call that decoded a CDT3 file.
func (r *recorder) endStreamed(id int, refs int64) {
	if r == nil {
		return
	}
	r.end(id, refs)
	r.spans[id].Streamed = true
}

// selfTimes splits one operation's spans into self time per span name:
// a span's duration minus the part its child spans cover. The root
// span's self time is the operation's time outside every layer span; it
// is reported under uncovered. A streamed span's decode share is
// estimated as its refs × the bare decode walk's ns/ref (the
// trace.decode span of the same operation) and moved to trace.decode.
func selfTimes(spans []span, uncovered string) map[string]float64 {
	child := make([]float64, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			child[p] += spans[i].seconds()
		}
	}
	decodePerRef := 0.0
	if t, refs := total(spans, "trace.decode"); refs > 0 {
		decodePerRef = t / float64(refs)
	}
	out := map[string]float64{}
	for i := range spans {
		s := &spans[i]
		self := s.seconds() - child[i]
		name := s.Name
		if s.Parent < 0 {
			name = uncovered
		}
		if s.Streamed {
			dec := decodePerRef * float64(s.Refs)
			out["trace.decode"] += dec
			self -= dec
		}
		out[name] += self
	}
	return out
}

// layerSelf sums self times by layer: the span name up to the first
// dot.
func layerSelf(self map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name, v := range self {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += v
	}
	return out
}

// total sums the duration (seconds) and references of the spans named
// name.
func total(spans []span, name string) (seconds float64, refs int64) {
	for i := range spans {
		if spans[i].Name == name {
			seconds += spans[i].seconds()
			refs += spans[i].Refs
		}
	}
	return seconds, refs
}

// allocOf sums the heap bytes allocated inside the spans named name.
func allocOf(spans []span, name string) uint64 {
	var n uint64
	for i := range spans {
		if spans[i].Name == name {
			n += spans[i].AllocBytes
		}
	}
	return n
}

// root returns the operation's root span.
func root(spans []span) *span {
	for i := range spans {
		if spans[i].Parent < 0 {
			return &spans[i]
		}
	}
	return nil
}

// nsPerRef is the span family's time per reference, net of its decode
// share when streamed (0 when the family is absent).
func nsPerRef(spans []span, name string) float64 {
	t, refs := total(spans, name)
	if refs == 0 {
		return 0
	}
	streamed := false
	for i := range spans {
		if spans[i].Name == name && spans[i].Streamed {
			streamed = true
		}
	}
	if streamed {
		if dt, drefs := total(spans, "trace.decode"); drefs > 0 {
			t -= dt / float64(drefs) * float64(refs)
		}
	}
	return t / float64(refs) * 1e9
}

// sortedNames returns the names by self time, largest first.
func sortedNames(self map[string]float64) []string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
