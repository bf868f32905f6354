package sqlengine

import (
	"cmp"
	"encoding/binary"
	"sync"

	"repro/internal/datum"
)

// The executor's one tail evaluates a bound expression a batch at a time,
// over a RowBatch and a selection vector sel: the batch rows still in play,
// in row order (DESIGN.md, "One tail"). A predicate narrows sel, and a
// get_json_object call is counted once per call site per row it is
// evaluated on (ParseMeter.Calls).

// vec is an expression's value by batch row (at): a datum vector d — a batch
// column, never copied, or one the evaluator filled — or a float vector f,
// NULL where ok is not triTrue, or else the constant c.
type vec struct {
	d  []datum.Datum
	f  []float64
	ok []uint8
	c  datum.Datum
}

// Three-valued truth, by batch row.
const (
	triFalse uint8 = iota
	triTrue
	triNull
)

var truthDatums = [...]datum.Datum{datum.Bool(false), datum.Bool(true), datum.NullOf(datum.TypeBool)}

func truthOf(b bool) uint8 {
	if b {
		return triTrue
	}
	return triFalse
}

func (v *vec) at(i int) datum.Datum {
	switch {
	case v.d != nil:
		return v.d[i]
	case v.f == nil:
		return v.c
	case v.ok[i] == triTrue:
		return datum.Float(v.f[i])
	}
	return datum.NullOf(datum.TypeFloat64)
}

// evaluator is a worker's expression evaluator. Its vectors are pooled and
// taken in stack order: a caller notes the stack's top, evaluates, consumes
// the values and restores the top, so a batch holds no more vectors than its
// deepest expression needs. A vector has one entry per batch row, so a short
// batch (a small LIMIT) grows nothing.
type evaluator struct {
	b     *RowBatch
	n     int   // rows of b
	calls int64 // get_json_object calls evaluated

	ds     [][]datum.Datum
	fs     [][]float64
	bs     [][]uint8
	is     [][]int
	top    mark
	vs     []vec    // argument and group-key vectors, in stack order
	jk     []vec    // join key vectors
	rows   RowBatch // group rows, in pooled datum vectors (rowBatch)
	kb, vb []byte   // an encoded key, a rendered value
}

// mark is the height of the evaluator's stacks.
type mark struct{ d, f, b, i int }

var evaluatorPool = sync.Pool{New: func() any { return new(evaluator) }}

// putEvaluator pools ev. Clearing every datum it holds drops its views of
// part files, so a pooled evaluator pins no storage.
func putEvaluator(ev *evaluator) {
	for _, d := range ev.ds {
		clear(d[:cap(d)])
	}
	clear(ev.vs[:cap(ev.vs)])
	clear(ev.jk[:cap(ev.jk)])
	ev.b, ev.calls, ev.top = nil, 0, mark{}
	evaluatorPool.Put(ev)
}

// begin aims ev at rows [0, n) of b and returns a selection of them all.
func (ev *evaluator) begin(b *RowBatch, n int) []int {
	ev.b, ev.n = b, n
	sel := ev.ints(n)[:n]
	for i := range sel {
		sel[i] = i
	}
	return sel
}

// grow returns v with length n, reallocated only when it is too short.
func grow[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, n)
	}
	return v[:n]
}

// take returns the next vector of pool, n long.
func take[T any](pool *[][]T, top *int, n int) []T {
	if *top == len(*pool) {
		*pool = append(*pool, nil)
	}
	v := grow((*pool)[*top], max(n, 1))
	(*pool)[*top] = v
	*top++
	return v
}

func (ev *evaluator) datums() []datum.Datum { return take(&ev.ds, &ev.top.d, ev.n) }
func (ev *evaluator) floats() []float64     { return take(&ev.fs, &ev.top.f, ev.n) }
func (ev *evaluator) bytes() []uint8        { return take(&ev.bs, &ev.top.b, ev.n) }
func (ev *evaluator) ints(n int) []int      { return take(&ev.is, &ev.top.i, n) }

// rowBatch returns a batch of width pooled datum vectors of n rows each.
func (ev *evaluator) rowBatch(width, n int) *RowBatch {
	ev.n, ev.rows.Cols = n, ev.rows.Cols[:0]
	for range width {
		ev.rows.Cols = append(ev.rows.Cols, ev.datums())
	}
	return &ev.rows
}

// column is batch column idx, or a NULL for a reference bound to none.
func (ev *evaluator) column(idx int, null datum.Type) vec {
	if idx < 0 || idx >= len(ev.b.Cols) {
		return vec{c: datum.NullOf(null)}
	}
	return vec{d: ev.b.Cols[idx]}
}

// value evaluates e over the rows of sel.
func (ev *evaluator) value(e Expr, sel []int) vec {
	switch n := e.(type) {
	case *Literal:
		return vec{c: n.Value}
	case *ColumnRef:
		return ev.column(n.index, datum.TypeString)
	case *keyRef:
		return ev.column(n.index, datum.TypeString)
	case *ExtractRef:
		if n.extracted {
			ev.calls += int64(len(sel))
		}
		return ev.column(n.index, datum.TypeString)
	case *Aggregate: // bound post-aggregation: a column of the group rows
		return ev.column(n.aggIndex, datum.TypeFloat64)
	case *FuncCall:
		return ev.call(n, sel)
	case *Binary:
		if n.Op >= OpEq {
			break
		}
		out := ev.datums()
		m := ev.top
		l, r := ev.value(n.Left, sel), ev.value(n.Right, sel)
		for _, i := range sel {
			out[i] = arith(n.Op, l.at(i), r.at(i))
		}
		ev.top = m
		return vec{d: out}
	case *Not, *IsNull, *Like:
	default:
		return vec{c: datum.NullOf(datum.TypeString)}
	}
	// A predicate's value is its truth as a BOOLEAN.
	out := ev.datums()
	m := ev.top
	t := ev.truth(e, sel)
	for _, i := range sel {
		out[i] = truthDatums[t[i]]
	}
	ev.top = m
	return vec{d: out}
}

// call evaluates a scalar function call. Every argument is evaluated whatever
// the arity, so get_json_object calls are metered the same for a call that
// then yields NULL.
func (ev *evaluator) call(fc *FuncCall, sel []int) vec {
	op := fc.opcode()
	if op == fnCastDouble && len(fc.Args) == 1 {
		return ev.castDouble(fc.Args[0], sel)
	}
	out := ev.datums()
	m := ev.top
	base := len(ev.vs)
	for _, a := range fc.Args {
		v := ev.value(a, sel)
		ev.vs = append(ev.vs, v)
	}
	args := ev.vs[base:]
	for _, i := range sel {
		out[i] = scalarFunc(op, args, i)
	}
	clear(args)
	ev.vs = ev.vs[:base]
	ev.top = m
	return vec{d: out}
}

// castDouble parses arg's values into a float vector, as datum.AsFloat
// parses them, which is datum.Coerce's DOUBLE.
func (ev *evaluator) castDouble(arg Expr, sel []int) vec {
	v := ev.value(arg, sel)
	if v.d == nil {
		if v.f == nil {
			v.c = datum.Coerce(v.c, datum.TypeFloat64)
		}
		return v
	}
	out := vec{f: ev.floats(), ok: ev.bytes()}
	for _, i := range sel {
		f, ok := v.d[i].AsFloat()
		out.f[i], out.ok[i] = f, truthOf(ok)
	}
	return out
}

// truth evaluates e as a predicate over the rows of sel: true, false or NULL
// by batch row.
func (ev *evaluator) truth(e Expr, sel []int) []uint8 {
	var inner Expr
	switch n := e.(type) {
	case *Binary:
		if n.Op == OpAnd || n.Op == OpOr {
			return ev.logic(n, sel)
		}
		if n.Op >= OpEq {
			t := ev.bytes()
			m := ev.top
			l, r := ev.value(n.Left, sel), ev.value(n.Right, sel)
			compare(t, n.Op, l, r, sel)
			ev.top = m
			return t
		}
	case *Not:
		t := ev.truth(n.Inner, sel)
		for _, i := range sel {
			if t[i] != triNull {
				t[i] ^= triTrue
			}
		}
		return t
	case *IsNull:
		inner = n.Inner
	case *Like:
		inner = n.Inner
	}
	t := ev.bytes()
	m := ev.top
	v := ev.value(cmp.Or(inner, e), sel)
	for _, i := range sel {
		d := v.at(i)
		switch n := e.(type) {
		case *IsNull:
			t[i] = truthOf(d.Null != n.Negate)
		case *Like:
			t[i] = triNull
			if !d.Null {
				t[i] = truthOf(likeMatch(d.AsString(), n.Pattern))
			}
		default: // any other value is as true as datum.Coerce makes it
			t[i] = triNull
			if b := datum.Coerce(d, datum.TypeBool); !b.Null {
				t[i] = truthOf(b.B)
			}
		}
	}
	ev.top = m
	return t
}

// logic evaluates AND or OR in three-valued logic, the right side only on the
// rows the left side did not decide: those it is not false for under AND,
// not true for under OR.
func (ev *evaluator) logic(b *Binary, sel []int) []uint8 {
	decided := truthOf(b.Op == OpOr)
	t := ev.truth(b.Left, sel)
	m := ev.top
	rest := ev.ints(len(sel))[:0]
	for _, i := range sel {
		if t[i] != decided {
			rest = append(rest, i)
		}
	}
	r := ev.truth(b.Right, rest)
	for _, i := range rest {
		if r[i] == decided || r[i] == triNull {
			t[i] = r[i]
		}
	}
	ev.top = m
	return t
}

// compare sets t to the comparison of l and r on the rows of sel: NULL if
// either side is, else as compareForPredicate orders them. A float vector
// compared with a numeric literal compares as floats, which is what that
// function does with a float and a number; a literal on the left mirrors the
// operator.
func compare(t []uint8, op BinaryOp, l, r vec, sel []int) {
	if l.d == nil && l.f == nil {
		l, r, op = r, l, op.Mirror()
	}
	if lit, ok := r.c.AsFloat(); ok && l.f != nil && r.d == nil && r.f == nil &&
		(r.c.Typ == datum.TypeInt64 || r.c.Typ == datum.TypeFloat64) {
		for _, i := range sel {
			t[i] = triNull
			if l.ok[i] == triTrue {
				t[i] = truthOf(op.holds(cmpFloat(l.f[i], lit)))
			}
		}
		return
	}
	for _, i := range sel {
		a, b := l.at(i), r.at(i)
		t[i] = triNull
		if !a.Null && !b.Null {
			t[i] = truthOf(op.holds(compareForPredicate(a, b)))
		}
	}
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

// filter narrows sel, in place, to the rows e is true of; a nil e keeps
// them all.
func (ev *evaluator) filter(e Expr, sel []int) []int {
	if e == nil {
		return sel
	}
	m := ev.top
	t := ev.truth(e, sel)
	out := sel[:0]
	for _, i := range sel {
		if t[i] == triTrue {
			out = append(out, i)
		}
	}
	ev.top = m
	return out
}

// cut appends to rows one row per row of sel, width values wide, value c
// being expr(c)'s: the batch's rows are one allocation, filled an expression
// at a time.
func (ev *evaluator) cut(rows [][]datum.Datum, width int, expr func(c int) Expr, sel []int) [][]datum.Datum {
	if len(sel) == 0 {
		return rows
	}
	base, slab := len(rows), make([]datum.Datum, len(sel)*width)
	for j := range sel {
		rows = append(rows, slab[j*width:(j+1)*width:(j+1)*width])
	}
	for c := range width {
		m := ev.top
		v := ev.value(expr(c), sel)
		for j, i := range sel {
			rows[base+j][c] = v.at(i)
		}
		ev.top = m
	}
	return rows
}

// joinKeys evaluates keys into ev.jk and narrows sel, in place, to the rows
// none of them is NULL for: each key is evaluated only on the rows no key
// before it was NULL for.
func (ev *evaluator) joinKeys(keys []Expr, sel []int) []int {
	ev.jk = ev.jk[:0]
	for _, k := range keys {
		v := ev.value(k, sel)
		ev.jk = append(ev.jk, v)
		out := sel[:0]
		for _, i := range sel {
			if !v.at(i).Null {
				out = append(out, i)
			}
		}
		sel = out
	}
	return sel
}

// joinKey encodes row i of the join keys as length-prefixed fields (uvarint
// byte length, then the rendered value), so ("ab","c") and ("a","bc") differ.
func (ev *evaluator) joinKey(i int) []byte {
	kb := ev.kb[:0]
	for k := range ev.jk {
		ev.vb = ev.jk[k].at(i).AppendTo(ev.vb[:0])
		kb = binary.AppendUvarint(kb, uint64(len(ev.vb)))
		kb = append(kb, ev.vb...)
	}
	ev.kb = kb
	return kb
}

// groups assigns each row of sel its group of t, keyed by the GROUP BY
// values encoded column by column (appendGroupKey), and returns them by
// selection position.
func (ev *evaluator) groups(t *aggTable, sel []int) []int {
	groups := ev.ints(len(sel))[:len(sel)]
	if len(t.plan.GroupBy) == 0 {
		if len(sel) > 0 {
			t.group(nil, nil, 0)
		}
		clear(groups)
		return groups
	}
	base := len(ev.vs)
	for _, k := range t.plan.GroupBy {
		v := ev.value(k, sel)
		ev.vs = append(ev.vs, v)
	}
	keys, kb := ev.vs[base:], ev.kb
	for j, i := range sel {
		kb = kb[:0]
		for k := range keys {
			kb = appendGroupKey(kb, keys[k].at(i))
		}
		groups[j] = t.group(kb, keys, i)
	}
	ev.kb = kb
	clear(keys)
	ev.vs = ev.vs[:base]
	return groups
}
