// Package interp executes programs of the FORTRAN subset, producing the
// page-reference trace the virtual memory simulator replays. Array element
// accesses (reads and writes) each contribute one page reference; scalar
// and constant accesses do not (the paper assumes constants and
// instructions are permanently resident). When a directive plan is
// supplied, the inserted ALLOCATE/LOCK/UNLOCK directives execute at their
// insertion points and appear in the trace with pages resolved under the
// current loop indices.
//
// Run compiles the analyzed program once into a tree of closures and then
// runs it. Compilation resolves every name the tree-walking formulation
// looks up per reference: each scalar (DO variables included) becomes a
// cell holding its value and a defined bit, each array reference binds
// its storage, its segment geometry and its trace site, each operator and
// intrinsic binds its implementation, and each DO loop binds its
// directives. At run time a page reference is the subscript closures, a
// bounds check and base + elem/elemsPerPage.
package interp

import (
	"fmt"
	"math"
	"math/bits"

	"cdmm/internal/directive"
	"cdmm/internal/fortran"
	"cdmm/internal/mem"
	"cdmm/internal/sem"
	"cdmm/internal/trace"
)

// Config controls an interpreter run.
type Config struct {
	Layout *mem.Layout
	// Plan, when non-nil, causes directive events to be emitted.
	Plan *directive.Plan
	// MaxRefs caps the trace length as a runaway guard. 0 means the
	// default of 20 million references.
	MaxRefs int
	// Sites, when true, records the source-site side-band: every emitted
	// event is attributed to its loop nest, statement and array (or
	// directive insertion point) via trace.SetSite. Off by default so
	// plain traces stay byte-identical on disk.
	Sites bool
}

// Run executes the program and returns its trace.
func Run(info *sem.Info, cfg Config) (*trace.Trace, error) {
	if cfg.Layout == nil {
		return nil, fmt.Errorf("interp: Config.Layout is required")
	}
	maxRefs := cfg.MaxRefs
	if maxRefs == 0 {
		maxRefs = 20_000_000
	}
	c := &compiler{
		tr:      trace.NewBuilder(info.Prog.Name),
		maxRefs: maxRefs,
		layout:  cfg.Layout,
		plan:    cfg.Plan,
		scalars: map[string]*scalar{},
		zero:    &scalar{set: true, isInt: true},
		storage: map[string][]float64{},
	}
	for _, a := range info.Prog.Arrays {
		c.storage[a.Name] = make([]float64, a.Elems())
	}
	if cfg.Plan != nil {
		c.loopOf = map[*fortran.DoStmt]*sem.Loop{}
		for _, l := range info.Loops {
			c.loopOf[l.Stmt] = l
		}
		c.dirSites = map[*sem.Loop]*dirSites{}
	}
	if cfg.Sites {
		c.buildSites(info.Root)
	}
	if err := c.program(info.Prog.Body)(); err != nil {
		if err == errTooLong {
			return nil, fmt.Errorf("interp: %s exceeded %d references", info.Prog.Name, maxRefs)
		}
		return nil, err
	}
	return c.tr.Trace(), nil
}

// control is the statement-level control-flow outcome.
type control int

const (
	ctrlNext control = iota
	ctrlExit
	ctrlCycle
)

var errTooLong = fmt.Errorf("trace too long")

// Compiled forms. A stmtFn runs one statement (or statement list) and
// reports how control leaves it; an exprFn evaluates an expression; a
// refFn makes one array element reference and returns the element's
// linear index into the array's storage.
type (
	stmtFn func() (control, error)
	exprFn func() (float64, error)
	refFn  func() (int, error)
)

// scalar is one scalar variable's cell. set is false until the first
// assignment, so reading an unassigned scalar stays a runtime error.
// While isInt is true the value is the integer iv, exactly representable
// (|iv| <= maxExact): a DO loop sets it, any other assignment clears it.
// Subscripts read iv instead of rounding v.
type scalar struct {
	v     float64
	set   bool
	isInt bool
	iv    int
}

// maxExact bounds the integers the subscript fast path adds: the sum of
// two of them is exact in a float64, so it rounds to itself.
const maxExact = 1 << 52

// setInt assigns the integer i, as a DO loop does.
func (s *scalar) setInt(i int) {
	s.v, s.set = float64(i), true
	s.iv, s.isInt = i, -maxExact <= i && i <= maxExact
}

// dirSites caches the site ids of the directives inserted at one loop,
// indexed by directive kind, NoSite until interned. An id is interned at
// the first execution of its directive, so directive sites number in
// execution order after the reference sites.
type dirSites [3]int32

// Directive kinds, indexing dirSites.
const (
	dirLock = iota
	dirAllocate
	dirUnlock
)

var dirKindName = [3]string{dirLock: "LOCK", dirAllocate: "ALLOCATE", dirUnlock: "UNLOCK"}

// compiler turns the program into closures over the run's state: the
// trace being built and the cells and storage the closures capture.
type compiler struct {
	tr      *trace.Builder
	maxRefs int
	layout  *mem.Layout
	plan    *directive.Plan
	scalars map[string]*scalar
	// zero is a read-only cell holding 0, the base of constant indexes.
	zero    *scalar
	storage map[string][]float64
	loopOf  map[*fortran.DoStmt]*sem.Loop

	// Site threading (Config.Sites): siteOf maps every source array
	// reference to its trace site and is nil when sites are off;
	// dirSites holds each loop's lazily interned directive sites.
	siteOf   map[*fortran.RefExpr]int32
	dirSites map[*sem.Loop]*dirSites
}

// buildSites registers a trace site for every array reference in the
// program up front, so reference site ids are stable in source preorder
// regardless of execution order.
func (c *compiler) buildSites(root *sem.Loop) {
	c.siteOf = map[*fortran.RefExpr]int32{}
	var walk func(l *sem.Loop)
	walk = func(l *sem.Loop) {
		for _, ar := range l.Refs {
			c.siteOf[ar.Ref] = c.tr.AddSite(trace.Site{
				Nest:  l.Path(),
				Line:  ar.Ref.Line,
				Array: ar.Array.Name,
				Expr:  fortran.FormatExpr(ar.Ref),
			})
		}
		for _, ch := range l.Children {
			walk(ch)
		}
	}
	walk(root)
}

// setDirectiveSite makes the site of the kind directive inserted at loop
// current, interning it on first use. A no-op when sites are off.
func (c *compiler) setDirectiveSite(loop *sem.Loop, ds *dirSites, kind int) {
	if c.siteOf == nil {
		return
	}
	if ds[kind] == trace.NoSite {
		line := 0
		if loop.Stmt != nil {
			line = loop.Stmt.Line
		}
		ds[kind] = c.tr.AddSite(trace.Site{Nest: loop.Path(), Line: line, Expr: dirKindName[kind]})
	}
	c.tr.SetSite(ds[kind])
}

// scalar returns the cell of the named scalar, allocating it on first
// mention.
func (c *compiler) scalar(name string) *scalar {
	s, ok := c.scalars[name]
	if !ok {
		s = &scalar{}
		c.scalars[name] = s
	}
	return s
}

// program compiles the top-level statement list. EXIT or CYCLE escaping
// it is an error (semantic analysis already rejects it).
func (c *compiler) program(list []fortran.Stmt) func() error {
	fns := make([]stmtFn, len(list))
	for i, s := range list {
		fns[i] = c.stmt(s)
	}
	return func() error {
		for i, fn := range fns {
			ctl, err := fn()
			if err != nil {
				return err
			}
			if ctl != ctrlNext {
				return fmt.Errorf("line %d: EXIT/CYCLE outside loop", list[i].Pos())
			}
		}
		return nil
	}
}

// body compiles a loop or branch body; EXIT and CYCLE propagate upward.
func (c *compiler) body(list []fortran.Stmt) stmtFn {
	fns := make([]stmtFn, len(list))
	for i, s := range list {
		fns[i] = c.stmt(s)
	}
	switch len(fns) {
	case 0:
		return func() (control, error) { return ctrlNext, nil }
	case 1:
		return fns[0]
	}
	return func() (control, error) {
		for _, fn := range fns {
			ctl, err := fn()
			if err != nil {
				return ctrlNext, err
			}
			if ctl != ctrlNext {
				return ctl, nil
			}
		}
		return ctrlNext, nil
	}
}

func (c *compiler) stmt(s fortran.Stmt) stmtFn {
	switch st := s.(type) {
	case *fortran.AssignStmt:
		return c.assign(st)
	case *fortran.DoStmt:
		return c.doLoop(st)
	case *fortran.IfStmt:
		cond, then, els := c.expr(st.Cond), c.body(st.Then), c.body(st.Else)
		return func() (control, error) {
			v, err := cond()
			if err != nil {
				return ctrlNext, err
			}
			if v != 0 {
				return then()
			}
			return els()
		}
	case *fortran.ExitStmt:
		return func() (control, error) { return ctrlExit, nil }
	case *fortran.CycleStmt:
		return func() (control, error) { return ctrlCycle, nil }
	case *fortran.ContinueStmt:
		return func() (control, error) { return ctrlNext, nil }
	}
	err := fmt.Errorf("line %d: unknown statement %T", s.Pos(), s)
	return func() (control, error) { return ctrlNext, err }
}

// assign compiles an assignment. FORTRAN evaluation order: RHS first,
// then the store (whose subscripts may themselves reference arrays).
func (c *compiler) assign(st *fortran.AssignStmt) stmtFn {
	rhs := c.expr(st.RHS)
	if st.LHS.IsScalar() {
		cell := c.scalar(st.LHS.Name)
		return func() (control, error) {
			v, err := rhs()
			if err != nil {
				return ctrlNext, err
			}
			cell.v, cell.set, cell.isInt = v, true, false
			return ctrlNext, nil
		}
	}
	ref, data := c.ref(st.LHS), c.storage[st.LHS.Name]
	return func() (control, error) {
		v, err := rhs()
		if err != nil {
			return ctrlNext, err
		}
		idx, err := ref()
		if err != nil {
			return ctrlNext, err
		}
		data[idx] = v
		return ctrlNext, nil
	}
}

func (c *compiler) doLoop(st *fortran.DoStmt) stmtFn {
	// Directives textually precede the loop and execute every time control
	// reaches it; UNLOCKs follow it.
	var pre func()
	var post func() error
	if c.plan != nil {
		loop := c.loopOf[st]
		pre, post = c.preLoop(loop), c.postLoop(loop)
	}
	from, to := c.index(st.From), c.index(st.To)
	var step *index
	if st.Step != nil {
		x := c.index(st.Step)
		step = &x
	}
	cell, body, line := c.scalar(st.Var), c.body(st.Body), st.Line
	return func() (control, error) {
		if pre != nil {
			pre()
		}
		lo, err := from.eval()
		if err != nil {
			return ctrlNext, err
		}
		hi, err := to.eval()
		if err != nil {
			return ctrlNext, err
		}
		inc := 1
		if step != nil {
			if inc, err = step.eval(); err != nil {
				return ctrlNext, err
			}
			if inc == 0 {
				return ctrlNext, fmt.Errorf("line %d: zero DO step", line)
			}
		}
		i := lo
		for ; (inc > 0 && i <= hi) || (inc < 0 && i >= hi); i += inc {
			cell.setInt(i)
			ctl, err := body()
			if err != nil {
				return ctrlNext, err
			}
			if ctl == ctrlExit {
				break
			}
		}
		// FORTRAN semantics: after normal completion the DO variable holds
		// the first out-of-range value; after EXIT it keeps its current
		// value.
		cell.setInt(i)
		if post != nil {
			if err := post(); err != nil {
				return ctrlNext, err
			}
		}
		return ctrlNext, nil
	}
}

// loopSites returns the directive-site cache of a loop.
func (c *compiler) loopSites(loop *sem.Loop) *dirSites {
	ds, ok := c.dirSites[loop]
	if !ok {
		ds = &dirSites{trace.NoSite, trace.NoSite, trace.NoSite}
		c.dirSites[loop] = ds
	}
	return ds
}

// preLoop compiles the LOCK and ALLOCATE directives preceding a loop, or
// returns nil when there are none.
func (c *compiler) preLoop(loop *sem.Loop) func() {
	var fns []func()
	ds := c.loopSites(loop)
	for _, d := range c.plan.PreLoop[loop] {
		switch dir := d.(type) {
		case *directive.Lock:
			resolve := c.lockPages(dir)
			fns = append(fns, func() {
				pages := resolve()
				c.setDirectiveSite(loop, ds, dirLock)
				c.tr.AddLock(dir.PJ, dir.ID, pages)
			})
		case *directive.Allocate:
			fns = append(fns, func() {
				c.setDirectiveSite(loop, ds, dirAllocate)
				c.tr.AddAlloc(dir)
			})
		}
	}
	if len(fns) == 0 {
		return nil
	}
	return func() {
		for _, fn := range fns {
			fn()
		}
	}
}

// postLoop compiles the UNLOCK directives following a loop, or returns
// nil when there are none. An UNLOCK naming an array missing from the
// layout fails when it executes.
func (c *compiler) postLoop(loop *sem.Loop) func() error {
	var fns []func() error
	ds := c.loopSites(loop)
	for _, d := range c.plan.PostLoop[loop] {
		ul, ok := d.(*directive.Unlock)
		if !ok {
			continue
		}
		var pages []mem.Page
		var err error
		for _, name := range ul.Arrays {
			seg, ok := c.layout.Segment(name)
			if !ok {
				err = fmt.Errorf("UNLOCK: unknown array %s", name)
				break
			}
			for p := seg.Base; p < seg.End(); p++ {
				pages = append(pages, p)
			}
		}
		fns = append(fns, func() error {
			if err != nil {
				return err
			}
			c.setDirectiveSite(loop, ds, dirUnlock)
			// A fresh slice per execution: UnlockSets entries must not alias.
			c.tr.AddUnlock(append([]mem.Page(nil), pages...))
			return nil
		})
	}
	if len(fns) == 0 {
		return nil
	}
	return func() error {
		for _, fn := range fns {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	}
}

// lockPages compiles the resolution of a LOCK's pages: its reference
// sites' subscripts evaluated under the current indices (with their own
// references traced), deduplicated in first-appearance order. A site
// whose subscripts fail (e.g. use a variable not yet assigned on the
// first execution) or fall out of range is skipped.
func (c *compiler) lockPages(lk *directive.Lock) func() []mem.Page {
	type site struct {
		subs subscripts
		seg  segment
	}
	sites := make([]site, len(lk.Refs))
	for i, ar := range lk.Refs {
		sites[i] = site{subs: c.subscripts(ar.Ref), seg: c.segment(ar.Array.Name)}
	}
	return func() []mem.Page {
		var pages []mem.Page
	next:
		for _, s := range sites {
			row, col, err := s.subs.eval()
			if err != nil {
				continue
			}
			if !s.seg.in(row, col) {
				continue
			}
			p := s.seg.pageOf(s.seg.elem(row, col))
			for _, q := range pages {
				if q == p {
					continue next
				}
			}
			pages = append(pages, p)
		}
		return pages
	}
}

// segment is an array's placement resolved from the layout; ok is false
// for an array the layout does not cover. shift is log2 of the elements
// per page when that is a power of two (as in every paper geometry), so
// the per-reference page computation avoids a division; -1 otherwise.
type segment struct {
	ok         bool
	base       mem.Page
	rows, cols int
	epp, shift int
}

func (c *compiler) segment(name string) segment {
	seg, ok := c.layout.Segment(name)
	epp, shift := c.layout.Geo.ElemsPerPage(), -1
	if epp > 0 && epp&(epp-1) == 0 {
		shift = bits.TrailingZeros(uint(epp))
	}
	return segment{ok: ok, base: seg.Base, rows: seg.Rows, cols: seg.Cols, epp: epp, shift: shift}
}

// in reports whether (row, col) is a valid element of the segment, the
// check mem.Layout.PageOf makes.
func (s *segment) in(row, col int) bool {
	return s.ok && row >= 1 && row <= s.rows && col >= 1 && col <= s.cols
}

// elem is the column-major linear index of an in-bounds element.
func (s *segment) elem(row, col int) int { return (col-1)*s.rows + (row - 1) }

// pageOf is the virtual page of an in-bounds element's linear index.
func (s *segment) pageOf(elem int) mem.Page {
	if s.shift >= 0 {
		return s.base + mem.Page(elem>>s.shift)
	}
	return s.base + mem.Page(elem/s.epp)
}

// subscripts is a reference's compiled subscripts; a vector reference
// has no column subscript and its column is 1.
type subscripts struct {
	row, col index
	// affine is true when both subscripts are cell + integer forms, so
	// fast may apply.
	affine bool
}

func (c *compiler) subscripts(r *fortran.RefExpr) subscripts {
	s := subscripts{row: c.index(r.Subs[0]), col: c.constIndex(1)}
	if len(r.Subs) == 2 {
		s.col = c.index(r.Subs[1])
	}
	s.affine = s.row.intOff && s.col.intOff
	return s
}

// fast evaluates affine subscripts whose cells hold integers with integer
// arithmetic; ok is false when eval must be used instead.
func (s *subscripts) fast() (row, col int, ok bool) {
	if s.affine && s.row.cell.isInt && s.col.cell.isInt {
		return s.row.cell.iv + s.row.ioff, s.col.cell.iv + s.col.ioff, true
	}
	return 0, 0, false
}

// eval evaluates the subscripts to (row, col), row first.
func (s *subscripts) eval() (row, col int, err error) {
	if row, err = s.row.eval(); err != nil {
		return 0, 0, err
	}
	if col, err = s.col.eval(); err != nil {
		return 0, 0, err
	}
	return row, col, nil
}

// ref compiles an array element reference: evaluate the subscripts, check
// bounds, check the trace-length guard, attribute and append the page
// reference, and return the element's linear index into the array's
// storage.
func (c *compiler) ref(r *fortran.RefExpr) refFn {
	subs, seg := c.subscripts(r), c.segment(r.Name)
	tr, maxRefs, sites := c.tr, c.maxRefs, c.siteOf != nil
	site, ok := c.siteOf[r]
	if !ok {
		site = trace.NoSite
	}
	layout, name, line := c.layout, r.Name, r.Line
	return func() (int, error) {
		i, j, ok := subs.fast()
		if !ok {
			var err error
			if i, j, err = subs.eval(); err != nil {
				return 0, err
			}
		}
		if !seg.in(i, j) {
			_, err := layout.PageOf(name, i, j)
			return 0, fmt.Errorf("line %d: %v", line, err)
		}
		if tr.Refs() >= maxRefs {
			return 0, errTooLong
		}
		if sites {
			tr.SetSite(site)
		}
		elem := seg.elem(i, j)
		tr.AddRef(seg.pageOf(elem))
		return elem, nil
	}
}

// index is a compiled expression used as an integer (a subscript or a
// loop bound): its value rounded to the nearest integer. The affine
// forms that make up nearly every subscript — a constant, a scalar, or a
// scalar plus or minus a constant — evaluate from a cell as cell + off,
// the same floating-point sum the expression computes (x - c is x + -c
// exactly, a lone scalar's x + 0 rounds like x, and a constant is the
// zero cell plus itself). When off is an integer no larger than maxExact
// (intOff) and the cell holds an integer, that sum is the integer
// iv + ioff. Any other expression calls its compiled closure.
type index struct {
	cell   *scalar
	off    float64
	ioff   int
	intOff bool
	ref    *fortran.RefExpr // the scalar, for the used-before-assignment error
	fn     exprFn
}

func (c *compiler) index(e fortran.Expr) index {
	switch x := e.(type) {
	case *fortran.NumExpr:
		return c.constIndex(x.Value)
	case *fortran.RefExpr:
		if x.IsScalar() {
			return c.cellIndex(x, 0)
		}
	case *fortran.BinExpr:
		if x.Op != "+" && x.Op != "-" {
			break
		}
		r, lok := x.L.(*fortran.RefExpr)
		n, rok := x.R.(*fortran.NumExpr)
		if lok && rok && r.IsScalar() {
			if x.Op == "-" {
				return c.cellIndex(r, -n.Value)
			}
			return c.cellIndex(r, n.Value)
		}
		n, lok = x.L.(*fortran.NumExpr)
		r, rok = x.R.(*fortran.RefExpr)
		if lok && rok && r.IsScalar() && x.Op == "+" {
			return c.cellIndex(r, n.Value)
		}
	}
	return index{fn: c.expr(e)}
}

func (c *compiler) constIndex(v float64) index {
	x := c.cellIndex(nil, v)
	x.cell = c.zero
	return x
}

func (c *compiler) cellIndex(r *fortran.RefExpr, off float64) index {
	x := index{off: off, ref: r}
	if r != nil {
		x.cell = c.scalar(r.Name)
	}
	if off == math.Trunc(off) && math.Abs(off) <= maxExact {
		x.ioff, x.intOff = int(off), true
	}
	return x
}

// eval is the general evaluation; subscripts.fast covers the integer
// case of the affine forms.
func (x *index) eval() (int, error) {
	if x.cell == nil {
		v, err := x.fn()
		if err != nil {
			return 0, err
		}
		return int(math.Round(v)), nil
	}
	if !x.cell.set {
		return 0, undefined(x.ref)
	}
	return int(math.Round(x.cell.v + x.off)), nil
}

func undefined(r *fortran.RefExpr) error {
	return fmt.Errorf("line %d: scalar %s used before assignment", r.Line, r.Name)
}

func (c *compiler) expr(e fortran.Expr) exprFn {
	switch x := e.(type) {
	case *fortran.NumExpr:
		v := x.Value
		return func() (float64, error) { return v, nil }
	case *fortran.RefExpr:
		if x.IsScalar() {
			cell := c.scalar(x.Name)
			return func() (float64, error) {
				if !cell.set {
					return 0, undefined(x)
				}
				return cell.v, nil
			}
		}
		ref, data := c.ref(x), c.storage[x.Name]
		return func() (float64, error) {
			idx, err := ref()
			if err != nil {
				return 0, err
			}
			return data[idx], nil
		}
	case *fortran.UnExpr:
		f := c.expr(x.X)
		if x.Op == ".NOT." {
			return func() (float64, error) {
				v, err := f()
				if err != nil {
					return 0, err
				}
				return boolVal(v == 0), nil
			}
		}
		return func() (float64, error) {
			v, err := f()
			return -v, err
		}
	case *fortran.BinExpr:
		return c.binary(x)
	case *fortran.CallExpr:
		return c.call(x)
	}
	err := fmt.Errorf("unknown expression %T", e)
	return func() (float64, error) { return 0, err }
}

// binary compiles a binary operation. The left operand is evaluated
// first; .AND. and .OR. short-circuit, which keeps the references of the
// right operand out of the trace when it is not needed.
func (c *compiler) binary(x *fortran.BinExpr) exprFn {
	l, r := c.expr(x.L), c.expr(x.R)
	switch x.Op {
	case ".AND.", ".OR.":
		// The left value that decides the result without the right operand.
		decides := x.Op == ".OR."
		return func() (float64, error) {
			a, err := l()
			if err != nil {
				return 0, err
			}
			if (a != 0) == decides {
				return boolVal(decides), nil
			}
			b, err := r()
			if err != nil {
				return 0, err
			}
			return boolVal(b != 0), nil
		}
	case "+":
		return func() (float64, error) {
			a, err := l()
			if err != nil {
				return 0, err
			}
			b, err := r()
			return a + b, err
		}
	case "-":
		return func() (float64, error) {
			a, err := l()
			if err != nil {
				return 0, err
			}
			b, err := r()
			return a - b, err
		}
	case "*":
		return func() (float64, error) {
			a, err := l()
			if err != nil {
				return 0, err
			}
			b, err := r()
			return a * b, err
		}
	case "/":
		return func() (float64, error) {
			a, err := l()
			if err != nil {
				return 0, err
			}
			b, err := r()
			if err != nil {
				return 0, err
			}
			if b == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return a / b, nil
		}
	}
	op := binOp(x.Op)
	if op == nil {
		err := fmt.Errorf("unknown operator %s", x.Op)
		return func() (float64, error) {
			if _, e := l(); e != nil {
				return 0, e
			}
			if _, e := r(); e != nil {
				return 0, e
			}
			return 0, err
		}
	}
	return func() (float64, error) {
		a, err := l()
		if err != nil {
			return 0, err
		}
		b, err := r()
		if err != nil {
			return 0, err
		}
		return op(a, b), nil
	}
}

// binOp returns the binary operators that have no error cases beyond
// their operands', or nil.
func binOp(op string) func(a, b float64) float64 {
	switch op {
	case "**":
		return math.Pow
	case ".LT.":
		return func(a, b float64) float64 { return boolVal(a < b) }
	case ".LE.":
		return func(a, b float64) float64 { return boolVal(a <= b) }
	case ".GT.":
		return func(a, b float64) float64 { return boolVal(a > b) }
	case ".GE.":
		return func(a, b float64) float64 { return boolVal(a >= b) }
	case ".EQ.":
		return func(a, b float64) float64 { return boolVal(a == b) }
	case ".NE.":
		return func(a, b float64) float64 { return boolVal(a != b) }
	}
	return nil
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// unaryIntrinsic returns the one-argument intrinsic of that name, or
// nil; a non-nil error result is the intrinsic's domain error.
func unaryIntrinsic(name string) func(v float64) (float64, error) {
	switch name {
	case "ABS", "IABS":
		return func(v float64) (float64, error) { return math.Abs(v), nil }
	case "SQRT":
		return func(v float64) (float64, error) {
			if v < 0 {
				return 0, fmt.Errorf("SQRT of negative %g", v)
			}
			return math.Sqrt(v), nil
		}
	case "EXP":
		return func(v float64) (float64, error) { return math.Exp(v), nil }
	case "LOG":
		return func(v float64) (float64, error) {
			if v <= 0 {
				return 0, fmt.Errorf("LOG of non-positive %g", v)
			}
			return math.Log(v), nil
		}
	case "SIN":
		return func(v float64) (float64, error) { return math.Sin(v), nil }
	case "COS":
		return func(v float64) (float64, error) { return math.Cos(v), nil }
	case "ATAN":
		return func(v float64) (float64, error) { return math.Atan(v), nil }
	case "FLOAT", "REAL", "DBLE":
		return func(v float64) (float64, error) { return v, nil }
	case "INT":
		return func(v float64) (float64, error) { return math.Trunc(v), nil }
	}
	return nil
}

// binaryIntrinsic returns the two-argument intrinsic of that name, or
// nil.
func binaryIntrinsic(name string) func(a, b float64) (float64, error) {
	switch name {
	case "MOD":
		return func(a, b float64) (float64, error) {
			if b == 0 {
				return 0, fmt.Errorf("MOD by zero")
			}
			return math.Mod(a, b), nil
		}
	case "SIGN":
		return func(a, b float64) (float64, error) {
			if b < 0 {
				return -math.Abs(a), nil
			}
			return math.Abs(a), nil
		}
	}
	return nil
}

// call compiles an intrinsic call. Every argument is evaluated, left to
// right, before the arity and name are checked, so a malformed call still
// makes its arguments' references.
func (c *compiler) call(x *fortran.CallExpr) exprFn {
	args := make([]exprFn, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.expr(a)
	}
	var fail error
	switch x.Name {
	case "MAX", "AMAX1", "MAX0", "MIN", "AMIN1", "MIN0":
		if len(args) < 2 {
			fail = fmt.Errorf("%s needs at least 2 arguments", x.Name)
			break
		}
		isMax := x.Name == "MAX" || x.Name == "AMAX1" || x.Name == "MAX0"
		return func() (float64, error) {
			m, err := args[0]()
			if err != nil {
				return 0, err
			}
			for _, a := range args[1:] {
				v, err := a()
				if err != nil {
					return 0, err
				}
				if isMax && v > m || !isMax && v < m {
					m = v
				}
			}
			return m, nil
		}
	default:
		if f := unaryIntrinsic(x.Name); f != nil {
			if len(args) != 1 {
				fail = fmt.Errorf("%s expects %d arguments, got %d", x.Name, 1, len(args))
				break
			}
			a := args[0]
			return func() (float64, error) {
				v, err := a()
				if err != nil {
					return 0, err
				}
				return f(v)
			}
		}
		if f := binaryIntrinsic(x.Name); f != nil {
			if len(args) != 2 {
				fail = fmt.Errorf("%s expects %d arguments, got %d", x.Name, 2, len(args))
				break
			}
			a, b := args[0], args[1]
			return func() (float64, error) {
				u, err := a()
				if err != nil {
					return 0, err
				}
				v, err := b()
				if err != nil {
					return 0, err
				}
				return f(u, v)
			}
		}
		fail = fmt.Errorf("unknown intrinsic %s", x.Name)
	}
	return func() (float64, error) {
		for _, a := range args {
			if _, err := a(); err != nil {
				return 0, err
			}
		}
		return 0, fail
	}
}
