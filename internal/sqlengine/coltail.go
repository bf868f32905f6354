package sqlengine

import (
	"slices"
	"sync"

	"repro/internal/datum"
)

// The column tail runs an aggregate plan's filter and partial aggregation a
// batch at a time, straight off the batch's columns: no row is gathered and
// no expression tree is walked per row. It applies when every leaf of the
// filter, the group key and the aggregate arguments is a column or a
// literal — a get_json_object call is a column, whether the scan extracts it
// or a cache serves it, so raw, cached, combined and shared plans of one
// shape all take it:
//   - the filter is absent or an AND of comparisons of a column, or of
//     cast_double(column), with a non-NULL literal (a numeric one for the
//     cast);
//   - the group key is absent or one column;
//   - every aggregate is COUNT(*) or takes a column or cast_double(column).
//
// Any other aggregate plan, a join, and a projection keep the row loop. The
// plan's shape picks the loop; nothing else does. Both count the same
// get_json_object calls: one per call site per row the row loop would
// evaluate it on.

// columnTail is an aggregate plan's tail compiled once per plan, by
// planAggregate and again by Rebind after a rewrite. Partitions share it
// read-only.
type columnTail struct {
	// filter holds the WHERE conjuncts; each narrows the selection in turn.
	filter []colCompare
	// vecs[v] is the column float vector v parses: once per batch, over the
	// rows still selected when a conjunct or an aggregate first reads it.
	vecs []int
	// key is the group key's column, -1 for a global aggregate.
	key int
	// aggs[i] is what plan.Aggs[i] folds.
	aggs []colArg
	// rowCalls counts the get_json_object calls the group key and the
	// aggregate arguments make per row folded.
	rowCalls int64
}

// colCompare is one conjunct: column col, or float vector vec when vec >= 0,
// compared by op with lit, the column on the left (a literal written on the
// left mirrors op). call marks a column the scan extracts.
type colCompare struct {
	col, vec int
	call     bool
	op       BinaryOp
	lit      datum.Datum
	litF     float64 // lit as a float, for the vector comparison
}

// colArg is an aggregate's input: every selected row when col < 0
// (COUNT(*)), float vector vec when vec >= 0, otherwise column col's datums.
// SUM and AVG read a vector even over a bare column, since they fold the
// values AsFloat gives, exactly what cast_double parses.
type colArg struct{ col, vec int }

// compileColumnTail compiles plan's tail when its shape allows, nil
// otherwise. It checks every part before it allocates, so a plan that keeps
// the row loop costs nothing here.
func compileColumnTail(plan *PhysicalPlan) *columnTail {
	width := len(plan.InputSchema.Cols)
	if !plan.aggregate || plan.Join != nil || len(plan.GroupBy) > 1 || !addConjuncts(nil, plan.Filter, width) {
		return nil
	}
	key, keyCall := -1, false
	if len(plan.GroupBy) == 1 {
		col, cast, call, ok := argOf(plan.GroupBy[0], width)
		if !ok || cast {
			return nil
		}
		key, keyCall = col, call
	}
	for _, a := range plan.Aggs {
		if _, _, _, ok := argOf(a.Arg, width); a.Arg != nil && !ok {
			return nil
		}
	}
	t := &columnTail{key: key, aggs: make([]colArg, len(plan.Aggs))}
	if keyCall {
		t.rowCalls++
	}
	for i, a := range plan.Aggs {
		t.aggs[i] = colArg{col: -1, vec: -1}
		if a.Arg == nil {
			continue
		}
		col, cast, call, _ := argOf(a.Arg, width)
		t.aggs[i].col = col
		if cast || a.Func == AggSum || a.Func == AggAvg {
			t.aggs[i].vec = t.vecOf(col)
		}
		if call {
			t.rowCalls++
		}
	}
	addConjuncts(t, plan.Filter, width)
	return t
}

// addConjuncts reports whether e is absent or an AND of column comparisons,
// appending each to t unless t is nil.
func addConjuncts(t *columnTail, e Expr, width int) bool {
	if e == nil {
		return true
	}
	b, ok := e.(*Binary)
	if !ok {
		return false
	}
	if b.Op == OpAnd {
		return addConjuncts(t, b.Left, width) && addConjuncts(t, b.Right, width)
	}
	if b.Op < OpEq || b.Op > OpGe {
		return false
	}
	side, other, op := b.Left, b.Right, b.Op
	if _, ok := side.(*Literal); ok {
		side, other, op = b.Right, b.Left, op.Mirror()
	}
	lit, isLit := other.(*Literal)
	col, cast, call, ok := argOf(side, width)
	if !isLit || !ok || lit.Value.Null ||
		cast && lit.Value.Typ != datum.TypeInt64 && lit.Value.Typ != datum.TypeFloat64 {
		return false
	}
	if t != nil {
		c := colCompare{col: col, vec: -1, call: call, op: op, lit: lit.Value}
		if cast {
			c.vec = t.vecOf(col)
			c.litF, _ = lit.Value.AsFloat()
		}
		t.filter = append(t.filter, c)
	}
	return true
}

// argOf reports whether e is a column or cast_double(column) bound within
// width, which column, and whether reading it is a get_json_object call.
func argOf(e Expr, width int) (col int, cast, call, ok bool) {
	if fc, isCall := e.(*FuncCall); isCall && fc.opcode() == fnCastDouble && len(fc.Args) == 1 {
		e, cast = fc.Args[0], true
	}
	switch n := e.(type) {
	case *ColumnRef:
		col = n.index
	case *ExtractRef:
		col, call = n.index, n.extracted
	default:
		return 0, false, false, false
	}
	return col, cast, call, col >= 0 && col < width
}

// vecOf returns the float vector of column col, adding it on first use.
func (t *columnTail) vecOf(col int) int {
	if v := slices.Index(t.vecs, col); v >= 0 {
		return v
	}
	t.vecs = append(t.vecs, col)
	return len(t.vecs) - 1
}

// filterBatch selects the rows among the batch's first n that every
// conjunct holds of, and counts the get_json_object calls the row loop's AND
// would make on the way: a conjunct is evaluated on every row no earlier
// conjunct was false for. A NULL value, or one cast_double cannot parse,
// makes its comparison NULL, as Eval's NULL does: the row fails, but the
// conjuncts after it are still evaluated. A column compares with
// compareForPredicate, as Eval does; a vector compares as floats, which is
// what compareForPredicate does with a float and a numeric literal.
func (t *columnTail) filterBatch(b *RowBatch, n int, s *tailScratch) (sel []int, calls int64) {
	sel = s.sel[:0]
	for i := 0; i < n; i++ {
		sel = append(sel, i)
	}
	null := s.null[:n]
	clear(null)
	for _, c := range t.filter {
		if c.call {
			calls += int64(len(sel))
		}
		out := sel[:0]
		if c.vec >= 0 {
			f, ok := s.vector(c.vec, b.Cols[t.vecs[c.vec]], sel)
			for _, i := range sel {
				if !ok[i] || c.op.holds(cmpFloat(f[i], c.litF)) {
					null[i] = null[i] || !ok[i]
					out = append(out, i)
				}
			}
		} else {
			col := b.Cols[c.col]
			for _, i := range sel {
				if v := col[i]; v.Null || c.op.holds(compareForPredicate(v, c.lit)) {
					null[i] = null[i] || v.Null
					out = append(out, i)
				}
			}
		}
		sel = out
	}
	out := sel[:0]
	for _, i := range sel {
		if !null[i] {
			out = append(out, i)
		}
	}
	return out, calls
}

// cmpFloat orders two floats as datum.Compare orders float datums: NaN
// compares equal to everything.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// tailScratch is one partition's column-tail buffers, pooled across
// partitions and queries so that a partition allocates none of them.
type tailScratch struct {
	size   int       // rows per vector: the batch capacity
	f      []float64 // vector v's values are f[v*size:][:size], by batch row
	ok     []bool    // and their validity: false where the value is NULL or unparsable
	filled []bool    // filled[v]: vector v is parsed for the current batch
	sel    []int     // the selection, batch rows in order
	null   []bool    // by batch row: a conjunct was NULL for it
	groups []int     // each selected row's group, by selection position
	keyBuf []byte    // the group key being encoded
}

// tailScratchPool recycles tail buffers. They hold no datum, so a pooled one
// pins no part file.
var tailScratchPool = sync.Pool{New: func() any { return new(tailScratch) }}

// startBatch sizes s for vecs vectors of a batch's capacity rows and marks
// every vector unparsed.
func (s *tailScratch) startBatch(vecs, capacity int) {
	if s.size != capacity || len(s.filled) != vecs {
		s.size = capacity
		s.f = slices.Grow(s.f[:0], vecs*capacity)[:vecs*capacity]
		s.ok = slices.Grow(s.ok[:0], vecs*capacity)[:vecs*capacity]
		s.filled = slices.Grow(s.filled[:0], vecs)[:vecs]
		s.sel = slices.Grow(s.sel[:0], capacity)
		s.null = slices.Grow(s.null[:0], capacity)[:capacity]
		s.groups = slices.Grow(s.groups[:0], capacity)
	}
	clear(s.filled)
}

// vector returns float vector v of col, parsing the rows of sel the first
// time the batch asks for it. The selection only narrows within a batch, so
// rows parsed then cover every later ask.
func (s *tailScratch) vector(v int, col []datum.Datum, sel []int) ([]float64, []bool) {
	f, ok := s.f[v*s.size:][:s.size], s.ok[v*s.size:][:s.size]
	if !s.filled[v] {
		for _, i := range sel {
			f[i], ok[i] = col[i].AsFloat()
		}
		s.filled[v] = true
	}
	return f, ok
}
