package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"cdmm/internal/policy"
	"cdmm/internal/sweep"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
	"cdmm/internal/workloads"
)

const (
	// streamCopies is how many times each of the nine programs' reference
	// strings appears in the stream: 4 × 2,627,595 = 10,510,380 refs. The
	// mix is fixed so every seed does the same amount of work; the seed
	// orders the strings, which moves faults at every string boundary.
	streamCopies = 4
	// streamFrames and streamTau are the LRU allocation and WS window of
	// the streamed replays.
	streamFrames = 32
	streamTau    = 1000
)

// streamOut is one stream operation's output.
type streamOut struct {
	// HeaderRefs is R as the file's header declares it.
	HeaderRefs int64 `json:"headerRefs"`
	// WalkRefs is the references a bare cursor walk decoded (traced
	// runs only).
	WalkRefs int64        `json:"walkRefs,omitempty"`
	LRU      vmsim.Result `json:"lru"`
	WS       vmsim.Result `json:"ws"`
	// CurveLRU is sweep.LRUCurve.Result(streamFrames); HistWSFaults is
	// the WS histogram's Faults(streamTau).
	CurveLRU     vmsim.Result `json:"curveLRU"`
	HistWSFaults int          `json:"histWSFaults"`
}

// streamSequence draws the seed's order of whole-program reference
// strings, each directive-free as trace.Repeat makes it.
func streamSequence(seed uint64, copies int) ([]trace.Source, error) {
	var base []trace.Source
	for _, p := range workloads.All() {
		c, err := workloads.Compile(p)
		if err != nil {
			return nil, err
		}
		base = append(base, trace.Repeat(c.Trace, 1))
	}
	var seq []trace.Source
	for i := 0; i < copies; i++ {
		seq = append(seq, base...)
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed5eed))
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq, nil
}

// concat is the reference strings back to back as one Source.
type concat struct {
	srcs []trace.Source
	meta trace.Meta
}

// newConcat joins srcs, walking them once to count distinct pages for
// the header.
func newConcat(name string, srcs []trace.Source) (*concat, error) {
	c := &concat{srcs: srcs, meta: trace.Meta{Name: name, MaxPage: -1}}
	for _, s := range srcs {
		m := s.Meta()
		c.meta.Refs += m.Refs
		c.meta.MaxPage = max(c.meta.MaxPage, m.MaxPage)
	}
	seen := make([]bool, int(c.meta.MaxPage)+1)
	cur := c.Blocks(trace.CursorOpts{})
	defer cur.Close()
	var b trace.Block
	for cur.Next(&b) {
		for _, pg := range b.Pages {
			if !seen[pg] {
				seen[pg] = true
				c.meta.Distinct++
			}
		}
	}
	c.meta.Events = c.meta.Refs
	return c, cur.Err()
}

func (c *concat) Meta() trace.Meta          { return c.meta }
func (c *concat) Tables() *trace.SideTables { return &trace.SideTables{} }
func (c *concat) Blocks(o trace.CursorOpts) trace.Cursor {
	return &concatCursor{srcs: c.srcs, opts: o}
}

type concatCursor struct {
	srcs []trace.Source
	opts trace.CursorOpts
	cur  trace.Cursor
	err  error
}

func (c *concatCursor) Next(b *trace.Block) bool {
	for c.err == nil && len(c.srcs) > 0 {
		if c.cur == nil {
			c.cur = c.srcs[0].Blocks(c.opts)
		}
		if c.cur.Next(b) {
			return true
		}
		c.err = c.cur.Err()
		c.cur.Close()
		c.cur = nil
		c.srcs = c.srcs[1:]
	}
	return false
}

func (c *concatCursor) Err() error { return c.err }

func (c *concatCursor) Close() error {
	c.srcs = nil
	if c.cur != nil {
		return c.cur.Close()
	}
	return nil
}

// encodeFile writes src to path as CDT3 and returns the file's size.
func encodeFile(path string, src trace.Source) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n, err := trace.WriteCDT3(w, src, 0)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// streamSetup encodes the seed's reference stream into one CDT3 file,
// streamEncodes times.
func streamSetup(c *config) (*prep, error) {
	seq, err := streamSequence(c.seed, streamCopies)
	if err != nil {
		return nil, err
	}
	return streamPrep(c, seq)
}

func streamPrep(c *config, seq []trace.Source) (*prep, error) {
	src, err := newConcat(fmt.Sprintf("stream-seed%d", c.seed), seq)
	if err != nil {
		return nil, err
	}
	refs := int64(src.Meta().Refs)
	path := filepath.Join(c.dir, fmt.Sprintf("stream-seed%d.cdt3", c.seed))
	rec := newRecorder("stream", c.seed)
	var reps []float64
	var size int64
	var first *streamOut
	return &prep{
		again: func() (float64, error) {
			s := rec.begin("trace.encode")
			t := time.Now()
			n, err := encodeFile(path, src)
			d := time.Since(t).Seconds()
			rec.end(s, refs)
			if err == nil && size != 0 && n != size {
				err = fmt.Errorf("stream: encode wrote %d bytes, the first wrote %d", n, size)
			}
			size = n
			reps = append(reps, d)
			return d, err
		},
		args:    []string{"-input", path},
		cleanup: func() { os.Remove(path) },
		rec:     rec,
		layers: func() map[string]float64 {
			return map[string]float64{
				"trace.encode_ns_per_ref": median(reps) / float64(refs) * 1e9,
				"trace.bytes_per_ref":     float64(size) / float64(refs),
			}
		},
		check: func(out *childOut) []string {
			bad := checkStream(refs, out)
			if first == nil && len(bad) == 0 {
				first = out.Stream
			} else if first != nil && out.Stream != nil && !sameStream(first, out.Stream) {
				bad = append(bad, "stream: outputs differ from the run's first operation")
			}
			return bad
		},
	}, nil
}

// checkStream cross-checks one stream operation: the curves against the
// streamed replays, and every count against the header.
func checkStream(refs int64, out *childOut) []string {
	s := out.Stream
	if s == nil {
		return []string{"stream: no output"}
	}
	var bad []string
	if s.HeaderRefs != refs {
		bad = append(bad, fmt.Sprintf("stream: header declares %d refs, set-up encoded %d", s.HeaderRefs, refs))
	}
	if int64(s.LRU.Refs) != s.HeaderRefs || int64(s.WS.Refs) != s.HeaderRefs {
		bad = append(bad, fmt.Sprintf("stream: replays decoded %d (LRU) and %d (WS) refs, header declares %d", s.LRU.Refs, s.WS.Refs, s.HeaderRefs))
	}
	if out.Spans != nil && s.WalkRefs != s.HeaderRefs {
		bad = append(bad, fmt.Sprintf("stream: cursor walk decoded %d refs, header declares %d", s.WalkRefs, s.HeaderRefs))
	}
	if s.CurveLRU != s.LRU {
		bad = append(bad, fmt.Sprintf("stream: LRU curve at m=%d is %+v, streamed replay is %+v", streamFrames, s.CurveLRU, s.LRU))
	}
	if s.HistWSFaults != s.WS.Faults {
		bad = append(bad, fmt.Sprintf("stream: WS histogram faults at tau=%d are %d, streamed replay has %d", streamTau, s.HistWSFaults, s.WS.Faults))
	}
	return bad
}

func sameStream(a, b *streamOut) bool {
	return a.HeaderRefs == b.HeaderRefs && a.LRU == b.LRU && a.WS == b.WS &&
		a.CurveLRU == b.CurveLRU && a.HistWSFaults == b.HistWSFaults
}

// streamOp opens the file and replays it streamed under LRU and WS,
// then builds the LRU and WS curves off it. Traced, it first walks the
// file once without a policy to time the decoder alone.
func streamOp(a *childArgs, rec *recorder) (childOut, error) {
	root := rec.begin("op")
	s := rec.begin("trace.open")
	src, err := trace.OpenCDT3(a.input)
	if err != nil {
		return childOut{}, err
	}
	defer src.Close()
	rec.end(s, 0)
	refs := int64(src.Meta().Refs)
	out := &streamOut{HeaderRefs: refs}
	if rec != nil {
		s = rec.begin("trace.decode")
		if out.WalkRefs, err = walk(src); err != nil {
			return childOut{}, err
		}
		rec.end(s, out.WalkRefs)
	}
	s = rec.begin("vmsim.lru")
	if out.LRU, err = vmsim.RunSource(src, policy.NewLRU(streamFrames), nil); err != nil {
		return childOut{}, err
	}
	rec.endStreamed(s, refs)
	s = rec.begin("vmsim.ws")
	if out.WS, err = vmsim.RunSource(src, policy.NewWS(streamTau), nil); err != nil {
		return childOut{}, err
	}
	rec.endStreamed(s, refs)
	s = rec.begin("sweep.lru")
	curve, err := sweep.NewLRU(src)
	if err != nil {
		return childOut{}, err
	}
	out.CurveLRU = curve.Result(streamFrames)
	rec.endStreamed(s, refs)
	s = rec.begin("sweep.ws_hist")
	hist, err := sweep.NewWS(src)
	if err != nil {
		return childOut{}, err
	}
	out.HistWSFaults = hist.Faults(streamTau)
	rec.endStreamed(s, refs)
	rec.end(root, refs)
	return childOut{Refs: refs, Stream: out}, nil
}

// walk decodes every block of src and counts its references.
func walk(src trace.Source) (int64, error) {
	cur := src.Blocks(trace.CursorOpts{})
	defer cur.Close()
	var b trace.Block
	var n int64
	for cur.Next(&b) {
		n += int64(len(b.Pages))
	}
	return n, cur.Err()
}
