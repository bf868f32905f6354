package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/jsonpath"
	"repro/internal/sjson"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// The reference is a row-at-a-time evaluator of the statements
// sqlengine.Parse accepts, written against the parser's AST and the datum
// value type alone. It reads every raw part through warehouse.ReadAll and
// answers get_json_object with the tree parser (sjson.ParseString +
// Path.Eval), so an engine result checked against it rests on nothing of the
// executor, the column tail, the batch extraction or the cache. It follows
// the engine's documented semantics: SQL three-valued logic, numeric
// preference when a comparison's types differ, a group or DISTINCT row
// identified by its values' renderings with NULL apart from the string
// "NULL", and float SUM/AVG partials folded per split and added in split
// order (DESIGN.md, "Merge order is split order").

// errUnsupported marks a construct the reference does not evaluate.
var errUnsupported = errors.New("reference: unsupported")

func unsupported(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errUnsupported}, args...)...)
}

// refResult is the reference's answer to one statement.
type refResult struct {
	columns []string
	// rows is the whole result before LIMIT, sorted when the statement has
	// an ORDER BY.
	rows [][]datum.Datum
	// ordered reports that ORDER BY fixes the row order: no two rows that
	// differ tie on every key.
	ordered bool
	limit   int // -1 when absent
}

// refCol is one column of a row the reference evaluates over.
type refCol struct{ qualifier, name string }

// refTable is one table read for a statement: its columns and its rows, one
// slice per part file in split order.
type refTable struct {
	cols   []refCol
	splits [][][]datum.Datum
}

// readRefTable reads ref's table through warehouse.ReadAll and cuts the rows
// at the part files' row counts.
func readRefTable(wh *warehouse.Warehouse, ref sqlengine.TableRef, defaultDB string) (*refTable, error) {
	db := ref.DB
	if db == "" {
		db = defaultDB
	}
	info, err := wh.Table(db, ref.Table)
	if err != nil {
		return nil, err
	}
	t := &refTable{}
	var names []string
	for _, c := range info.Schema.Columns {
		names = append(names, c.Name)
		t.cols = append(t.cols, refCol{ref.Binding(), c.Name})
	}
	rows, err := wh.ReadAll(db, ref.Table, names)
	if err != nil {
		return nil, err
	}
	for _, f := range info.Files {
		r, err := wh.OpenFile(f)
		if err != nil {
			return nil, err
		}
		n := int(r.NumRows())
		if n > len(rows) {
			return nil, fmt.Errorf("reference: %s changed while it was read", f)
		}
		t.splits = append(t.splits, rows[:n:n])
		rows = rows[n:]
	}
	if len(rows) != 0 {
		return nil, fmt.Errorf("reference: %s.%s changed while it was read", db, ref.Table)
	}
	return t, nil
}

// refRow is one input row: its values under cols, and its split.
type refRow struct {
	vals  []datum.Datum
	split int
}

// refEval evaluates expressions over one input row, or over one group when
// group is set.
type refEval struct {
	cols  []refCol
	row   []datum.Datum
	group *refGroup
	keys  []sqlengine.Expr // the GROUP BY expressions, when group is set
}

// refGroup is one group of an aggregate statement.
type refGroup struct {
	keys []datum.Datum // the key values of the group's first row
	rows []refRow
}

// column resolves a reference the way the engine binds one: names match
// case-insensitively, an unqualified name must be unambiguous.
func column(cols []refCol, qualifier, name string) (int, error) {
	found := -1
	for i, c := range cols {
		if strings.EqualFold(c.name, name) && (qualifier == "" || strings.EqualFold(c.qualifier, qualifier)) {
			if found >= 0 {
				return -1, fmt.Errorf("reference: ambiguous column %q", name)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("reference: unknown column %s.%s", qualifier, name)
	}
	return found, nil
}

func (ev *refEval) eval(e sqlengine.Expr) (datum.Datum, error) {
	if ev.group != nil {
		return ev.evalPost(e)
	}
	switch n := e.(type) {
	case *sqlengine.Aggregate:
		return datum.Datum{}, fmt.Errorf("reference: aggregate %s not allowed here", n)
	case *sqlengine.ColumnRef:
		i, err := column(ev.cols, n.Qualifier, n.Name)
		if err != nil {
			return datum.Datum{}, err
		}
		return ev.row[i], nil
	}
	return ev.scalar(e)
}

// evalPost evaluates an expression over a group: an aggregate folds the
// group's rows, an expression spelled like a GROUP BY key (or a column named
// like a plain-column key) is the key's value, and any other column or
// get_json_object is an error.
func (ev *refEval) evalPost(e sqlengine.Expr) (datum.Datum, error) {
	if a, ok := e.(*sqlengine.Aggregate); ok {
		return ev.aggregate(a)
	}
	for i, k := range ev.keys {
		if strings.EqualFold(k.String(), e.String()) {
			return ev.group.keys[i], nil
		}
		kc, kok := k.(*sqlengine.ColumnRef)
		ec, eok := e.(*sqlengine.ColumnRef)
		if kok && eok && strings.EqualFold(kc.Name, ec.Name) &&
			(ec.Qualifier == "" || strings.EqualFold(kc.Qualifier, ec.Qualifier)) {
			return ev.group.keys[i], nil
		}
	}
	switch e.(type) {
	case *sqlengine.ColumnRef, *sqlengine.JSONPathExpr:
		return datum.Datum{}, fmt.Errorf("reference: %q must appear in GROUP BY or inside an aggregate", e)
	}
	return ev.scalar(e)
}

// scalar evaluates every node that reads no column directly.
func (ev *refEval) scalar(e sqlengine.Expr) (datum.Datum, error) {
	switch n := e.(type) {
	case *sqlengine.Literal:
		return n.Value, nil
	case *sqlengine.JSONPathExpr:
		doc, err := ev.eval(n.Column)
		if err != nil || doc.Null {
			return datum.NullOf(datum.TypeString), err
		}
		return refExtract(doc.S, n.Path), nil
	case *sqlengine.Binary:
		l, err := ev.eval(n.Left)
		if err != nil {
			return l, err
		}
		r, err := ev.eval(n.Right)
		if err != nil {
			return r, err
		}
		return refBinary(n.Op, l, r)
	case *sqlengine.Not:
		v, err := ev.eval(n.Inner)
		b := truth(v)
		if err != nil || b.Null {
			return datum.NullOf(datum.TypeBool), err
		}
		return datum.Bool(!b.B), nil
	case *sqlengine.IsNull:
		v, err := ev.eval(n.Inner)
		return datum.Bool(v.Null != n.Negate), err
	case *sqlengine.Like:
		v, err := ev.eval(n.Inner)
		if err != nil || v.Null {
			return datum.NullOf(datum.TypeBool), err
		}
		return datum.Bool(refLike(v.AsString(), n.Pattern)), nil
	case *sqlengine.FuncCall:
		args := make([]datum.Datum, len(n.Args))
		for i, a := range n.Args {
			v, err := ev.eval(a)
			if err != nil {
				return v, err
			}
			args[i] = v
		}
		return refFunc(n.Name, args)
	}
	return datum.Datum{}, unsupported("expression %T %s", e, e)
}

// refExtract is get_json_object by the tree parser: Path.Eval over
// sjson.ParseString's tree, and for a document the parser rejects the path
// extracted alone (DESIGN.md, "The malformed-document contract"). An absent
// path and a JSON null are NULL.
func refExtract(doc string, path *jsonpath.Path) datum.Datum {
	root, err := sjson.ParseString(doc)
	if err != nil {
		if v, ok := path.EvalString(doc); ok {
			return datum.Str(v)
		}
		return datum.NullOf(datum.TypeString)
	}
	if v := path.Eval(root); !v.IsNull() {
		return datum.Str(v.Scalar())
	}
	return datum.NullOf(datum.TypeString)
}

func truth(v datum.Datum) datum.Datum { return datum.Coerce(v, datum.TypeBool) }

// holds reports whether a WHERE or HAVING condition, if any, is true.
func (ev *refEval) holds(cond sqlengine.Expr) (bool, error) {
	if cond == nil {
		return true, nil
	}
	v, err := ev.eval(cond)
	b := truth(v)
	return err == nil && !b.Null && b.B, err
}

// refBinary applies a binary operator: three-valued AND and OR; NULL in,
// NULL out for the rest; comparisons numeric when the types differ and both
// sides read as numbers; arithmetic in float64, integral when both sides are
// integers, the result is whole and the operator is not division.
func refBinary(op sqlengine.BinaryOp, l, r datum.Datum) (datum.Datum, error) {
	switch op {
	case sqlengine.OpAnd, sqlengine.OpOr:
		lb, rb := truth(l), truth(r)
		decided := op == sqlengine.OpOr // OR is decided by a true side, AND by a false one
		if !lb.Null && lb.B == decided || !rb.Null && rb.B == decided {
			return datum.Bool(decided), nil
		}
		if lb.Null || rb.Null {
			return datum.NullOf(datum.TypeBool), nil
		}
		return datum.Bool(!decided), nil
	case sqlengine.OpEq, sqlengine.OpNe, sqlengine.OpLt, sqlengine.OpLe, sqlengine.OpGt, sqlengine.OpGe:
		if l.Null || r.Null {
			return datum.NullOf(datum.TypeBool), nil
		}
		c := datum.Compare(l, r)
		if l.Typ != r.Typ {
			lf, lok := l.AsFloat()
			rf, rok := r.AsFloat()
			if lok && rok {
				c = cmp3(lf, rf)
			}
		}
		switch op {
		case sqlengine.OpEq:
			return datum.Bool(c == 0), nil
		case sqlengine.OpNe:
			return datum.Bool(c != 0), nil
		case sqlengine.OpLt:
			return datum.Bool(c < 0), nil
		case sqlengine.OpLe:
			return datum.Bool(c <= 0), nil
		case sqlengine.OpGt:
			return datum.Bool(c > 0), nil
		}
		return datum.Bool(c >= 0), nil
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return datum.NullOf(datum.TypeFloat64), nil
	}
	if l.Typ == datum.TypeInt64 && r.Typ == datum.TypeInt64 && op != sqlengine.OpDiv && (rf != 0 || op != sqlengine.OpMod) {
		// Exact in int64 unless it overflows, which the wider big.Int shows.
		a, b := big.NewInt(l.I), big.NewInt(r.I)
		switch op {
		case sqlengine.OpAdd:
			a.Add(a, b)
		case sqlengine.OpSub:
			a.Sub(a, b)
		case sqlengine.OpMul:
			a.Mul(a, b)
		case sqlengine.OpMod:
			a.Rem(a, b)
		}
		if a.IsInt64() {
			return datum.Int(a.Int64()), nil
		}
	}
	var out float64
	switch op {
	case sqlengine.OpAdd:
		out = lf + rf
	case sqlengine.OpSub:
		out = lf - rf
	case sqlengine.OpMul:
		out = lf * rf
	case sqlengine.OpDiv, sqlengine.OpMod:
		if rf == 0 {
			return datum.NullOf(datum.TypeFloat64), nil
		}
		if out = lf / rf; op == sqlengine.OpMod {
			out = math.Mod(lf, rf)
		}
	default:
		return datum.Datum{}, unsupported("operator %d", op)
	}
	return datum.Float(out), nil
}

func cmp3(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// refLike matches s against a LIKE pattern byte by byte: '%' is any run,
// '_' any one byte.
func refLike(s, pattern string) bool {
	// at[j] reports whether pattern[:j] matches the prefix of s read so far.
	at := make([]bool, len(pattern)+1)
	at[0] = true
	for j := 0; j < len(pattern) && pattern[j] == '%'; j++ {
		at[j+1] = true
	}
	for i := 0; i < len(s); i++ {
		next := make([]bool, len(pattern)+1)
		for j := 0; j < len(pattern); j++ {
			switch pattern[j] {
			case '%':
				next[j+1] = next[j] || at[j+1]
			case '_':
				next[j+1] = at[j]
			default:
				next[j+1] = at[j] && pattern[j] == s[i]
			}
		}
		at = next
	}
	return at[len(pattern)]
}

// refFunc applies one of the seven scalar functions.
func refFunc(name string, args []datum.Datum) (datum.Datum, error) {
	if name == "concat" {
		var sb strings.Builder
		for _, a := range args {
			if a.Null {
				return datum.NullOf(datum.TypeString), nil
			}
			sb.WriteString(a.AsString())
		}
		return datum.Str(sb.String()), nil
	}
	if len(args) != 1 {
		return datum.Datum{}, unsupported("%s with %d arguments", name, len(args))
	}
	a := args[0]
	switch name {
	case "cast_double":
		return datum.Coerce(a, datum.TypeFloat64), nil
	case "cast_bigint":
		// Integer text exactly; any other number truncated, NULL unless it
		// is finite and within BIGINT.
		if i, err := strconv.ParseInt(a.S, 10, 64); a.Typ == datum.TypeString && err == nil {
			return datum.Int(i), nil
		}
		if a.Typ == datum.TypeInt64 {
			return a, nil
		}
		if f, ok := a.AsFloat(); ok && f >= math.MinInt64 && f < math.MaxInt64 {
			return datum.Int(int64(f)), nil
		}
		return datum.NullOf(datum.TypeInt64), nil
	case "length", "upper", "lower", "abs":
	default:
		return datum.Datum{}, unsupported("function %s", name)
	}
	if a.Null {
		return datum.NullOf(datum.TypeString), nil
	}
	switch name {
	case "length":
		return datum.Int(int64(len(a.AsString()))), nil
	case "upper":
		return datum.Str(strings.ToUpper(a.AsString())), nil
	case "lower":
		return datum.Str(strings.ToLower(a.AsString())), nil
	}
	if a.Typ == datum.TypeInt64 {
		if abs := new(big.Int).Abs(big.NewInt(a.I)); abs.IsInt64() {
			return datum.Int(abs.Int64()), nil
		}
	}
	f, ok := a.AsFloat()
	if !ok {
		return datum.NullOf(datum.TypeString), nil
	}
	return datum.Float(math.Abs(f)), nil
}

// aggregate folds one aggregate over the group's rows. Each split's rows are
// folded alone, in row order, and the partial states are merged in split
// order: a float SUM adds its per-split partials in that order, and a
// MIN/MAX keeps the earlier value on a tie.
func (ev *refEval) aggregate(a *sqlengine.Aggregate) (datum.Datum, error) {
	type partial struct {
		count int64
		sum   float64
		best  datum.Datum
	}
	better := func(v, cur datum.Datum) bool {
		c := datum.Compare(v, cur)
		return a.Func == sqlengine.AggMin && c < 0 || a.Func == sqlengine.AggMax && c > 0
	}
	var parts []partial // one per split holding a row of the group, in split order
	split := -1
	for _, r := range ev.group.rows {
		if r.split != split {
			parts = append(parts, partial{})
			split = r.split
		}
		p := &parts[len(parts)-1]
		if a.Arg == nil {
			p.count++
			continue
		}
		row := &refEval{cols: ev.cols, row: r.vals}
		v, err := row.eval(a.Arg)
		if err != nil {
			return v, err
		}
		if v.Null {
			continue
		}
		switch a.Func {
		case sqlengine.AggCount:
			p.count++
		case sqlengine.AggSum, sqlengine.AggAvg:
			if f, ok := v.AsFloat(); ok {
				p.sum += f
				p.count++
			}
		default:
			if p.count == 0 || better(v, p.best) {
				p.best = v
			}
			p.count++
		}
	}
	var total partial
	for i, p := range parts {
		if i == 0 {
			total = p
			continue
		}
		if p.count > 0 && (total.count == 0 || better(p.best, total.best)) {
			total.best = p.best
		}
		total.count += p.count
		total.sum += p.sum
	}
	switch a.Func {
	case sqlengine.AggCount:
		return datum.Int(total.count), nil
	case sqlengine.AggSum, sqlengine.AggAvg:
		if total.count == 0 {
			return datum.NullOf(datum.TypeFloat64), nil
		}
		if a.Func == sqlengine.AggAvg {
			return datum.Float(total.sum / float64(total.count)), nil
		}
		return datum.Float(total.sum), nil
	}
	if total.count == 0 {
		return datum.NullOf(datum.TypeString), nil
	}
	return total.best, nil
}

// identity renders values as a group or DISTINCT identity: each value's
// rendering, NULL apart from the string "NULL".
func identity(vals []datum.Datum) string {
	var sb strings.Builder
	for _, v := range vals {
		if v.Null {
			sb.WriteString("N;")
			continue
		}
		s := v.AsString()
		fmt.Fprintf(&sb, "%d:%s;", len(s), s)
	}
	return sb.String()
}

// referenceQuery answers sql over wh with the reference.
func referenceQuery(wh *warehouse.Warehouse, defaultDB, sql string) (*refResult, error) {
	stmt, err := sqlengine.Parse(sql)
	if err != nil {
		return nil, err
	}
	if stmt.Explain {
		return nil, unsupported("EXPLAIN")
	}
	left, err := readRefTable(wh, stmt.From, defaultDB)
	if err != nil {
		return nil, err
	}
	cols := left.cols
	var right *refTable
	if stmt.Join != nil {
		if right, err = readRefTable(wh, stmt.Join.Right, defaultDB); err != nil {
			return nil, err
		}
		cols = append(slices.Clip(cols), right.cols...)
	}
	// The rows WHERE keeps, each joined with every right row the ON admits,
	// in split order.
	var kept []refRow
	keep := func(vals []datum.Datum, split int) error {
		ok, err := (&refEval{cols: cols, row: vals}).holds(stmt.Where)
		if ok {
			kept = append(kept, refRow{vals, split})
		}
		return err
	}
	for split, rows := range left.splits {
		for _, row := range rows {
			if right == nil {
				if err := keep(row, split); err != nil {
					return nil, err
				}
				continue
			}
			for _, rrow := range slices.Concat(right.splits...) {
				joined := append(slices.Clip(row), rrow...)
				ok, err := joinMatches(stmt.Join.On, cols, len(left.cols), joined)
				if err == nil && ok {
					err = keep(joined, split)
				}
				if err != nil {
					return nil, err
				}
			}
		}
	}

	// SELECT * expands to every input column, named by its bare name.
	var items []sqlengine.SelectItem
	for _, it := range stmt.Items {
		if !it.Star {
			items = append(items, it)
			continue
		}
		for _, c := range cols {
			items = append(items, sqlengine.SelectItem{Expr: &sqlengine.ColumnRef{Qualifier: c.qualifier, Name: c.name}, Alias: c.name})
		}
	}
	res := &refResult{limit: stmt.Limit}
	aggregate := len(stmt.GroupBy) > 0 || stmt.Having != nil
	visit := func(n sqlengine.Expr) {
		if _, ok := n.(*sqlengine.Aggregate); ok {
			aggregate = true
		}
	}
	for _, it := range items {
		res.columns = append(res.columns, it.OutputName())
		sqlengine.Walk(it.Expr, visit)
	}
	for _, o := range stmt.OrderBy {
		sqlengine.Walk(o.Expr, visit)
	}

	// Each output row is evaluated by one refEval: the input row's, or a
	// group's.
	var evals []*refEval
	if !aggregate {
		for _, r := range kept {
			evals = append(evals, &refEval{cols: cols, row: r.vals})
		}
	} else {
		groups := map[string]*refGroup{}
		var order []*refGroup
		for _, r := range kept {
			ev := &refEval{cols: cols, row: r.vals}
			keys := make([]datum.Datum, len(stmt.GroupBy))
			for i, g := range stmt.GroupBy {
				if keys[i], err = ev.eval(g); err != nil {
					return nil, err
				}
			}
			id := identity(keys)
			g := groups[id]
			if g == nil {
				g = &refGroup{keys: keys}
				groups[id] = g
				order = append(order, g)
			}
			g.rows = append(g.rows, r)
		}
		if len(stmt.GroupBy) == 0 && len(order) == 0 {
			order = append(order, &refGroup{}) // a global aggregate over no rows is one row
		}
		for _, g := range order {
			ev := &refEval{cols: cols, group: g, keys: stmt.GroupBy}
			ok, err := ev.holds(stmt.Having)
			if err != nil {
				return nil, err
			}
			if ok {
				evals = append(evals, ev)
			}
		}
	}

	// Projection, with each row's ORDER BY keys: an alias names a projected
	// value, anything else is evaluated like a projection.
	type outRow struct{ vals, keys []datum.Datum }
	var out []outRow
	seen := map[string]bool{}
	for _, ev := range evals {
		var o outRow
		for _, it := range items {
			v, err := ev.eval(it.Expr)
			if err != nil {
				return nil, err
			}
			o.vals = append(o.vals, v)
		}
		for _, ob := range stmt.OrderBy {
			v, err := orderKey(ev, ob.Expr, items, o.vals)
			if err != nil {
				return nil, err
			}
			o.keys = append(o.keys, v)
		}
		if stmt.Distinct {
			id := identity(o.vals)
			if seen[id] {
				continue
			}
			seen[id] = true
		}
		out = append(out, o)
	}

	// ORDER BY, stable; the order is fixed unless two differing rows tie.
	keyCmp := func(a, b outRow) int {
		for k, ob := range stmt.OrderBy {
			if c := datum.Compare(a.keys[k], b.keys[k]); c != 0 {
				if ob.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	}
	slices.SortStableFunc(out, keyCmp)
	res.ordered = len(stmt.OrderBy) > 0
	for i := 1; i < len(out); i++ {
		if keyCmp(out[i-1], out[i]) == 0 && renderRow(out[i-1].vals) != renderRow(out[i].vals) {
			res.ordered = false
		}
	}
	for _, o := range out {
		res.rows = append(res.rows, o.vals)
	}
	return res, nil
}

// orderKey evaluates an ORDER BY key: a bare name equal to an item's output
// name is that item's value.
func orderKey(ev *refEval, e sqlengine.Expr, items []sqlengine.SelectItem, vals []datum.Datum) (datum.Datum, error) {
	if c, ok := e.(*sqlengine.ColumnRef); ok && c.Qualifier == "" {
		for i, it := range items {
			if strings.EqualFold(it.OutputName(), c.Name) {
				return vals[i], nil
			}
		}
	}
	return ev.eval(e)
}

// joinMatches evaluates an inner equi-join's ON over a joined row: a
// conjunction of equalities, each comparing an expression over the left
// table's columns with one over the right's, none NULL and each pair
// rendering alike.
func joinMatches(on sqlengine.Expr, cols []refCol, nLeft int, joined []datum.Datum) (bool, error) {
	if b, ok := on.(*sqlengine.Binary); ok && b.Op == sqlengine.OpAnd {
		l, err := joinMatches(b.Left, cols, nLeft, joined)
		if err != nil || !l {
			return false, err
		}
		return joinMatches(b.Right, cols, nLeft, joined)
	}
	b, ok := on.(*sqlengine.Binary)
	if !ok || b.Op != sqlengine.OpEq {
		return false, unsupported("join condition %s", on)
	}
	side := func(e sqlengine.Expr) (int, error) {
		s, err := -1, error(nil)
		sqlengine.Walk(e, func(n sqlengine.Expr) {
			c, ok := n.(*sqlengine.ColumnRef)
			if !ok || err != nil {
				return
			}
			i, cerr := column(cols, c.Qualifier, c.Name)
			switch cs := min(i/nLeft, 1); {
			case cerr != nil:
				err = cerr
			case s >= 0 && s != cs:
				err = unsupported("join key %s reads both tables", e)
			default:
				s = cs
			}
		})
		if err == nil && s < 0 {
			err = unsupported("join key %s reads no column", e)
		}
		return s, err
	}
	ls, err := side(b.Left)
	if err != nil {
		return false, err
	}
	rs, err := side(b.Right)
	if err != nil {
		return false, err
	}
	if ls == rs {
		return false, unsupported("join key %s compares one table with itself", on)
	}
	ev := &refEval{cols: cols, row: joined}
	l, err := ev.eval(b.Left)
	if err != nil {
		return false, err
	}
	r, err := ev.eval(b.Right)
	if err != nil {
		return false, err
	}
	return !l.Null && !r.Null && l.AsString() == r.AsString(), nil
}

// renderRow renders values with their types and a float's bits, so rows
// compare equal only when every value is the same datum.
func renderRow(row []datum.Datum) string {
	cells := make([]string, len(row))
	for i, d := range row {
		switch {
		case d.Null:
			cells[i] = "NULL:" + d.Typ.String()
		case d.Typ == datum.TypeFloat64:
			cells[i] = fmt.Sprintf("f:%016x(%v)", math.Float64bits(d.F), d.F)
		case d.Typ == datum.TypeInt64:
			cells[i] = "i:" + strconv.FormatInt(d.I, 10)
		case d.Typ == datum.TypeBool:
			cells[i] = "b:" + strconv.FormatBool(d.B)
		default:
			cells[i] = "s:" + strconv.Quote(d.S)
		}
	}
	return strings.Join(cells, " | ")
}

func renderAll(rows [][]datum.Datum) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = renderRow(r)
	}
	return out
}

// match reports how rows differ from the reference's answer, or ""
// when they hold it. Under a fixed order the rows must be the reference's,
// in order, up to LIMIT; otherwise the same multiset, and with a LIMIT that
// cuts the result, that many rows drawn from the unlimited result.
func (ref *refResult) match(columns []string, rows [][]datum.Datum) string {
	if !slices.Equal(columns, ref.columns) {
		return fmt.Sprintf("columns %q, want %q", columns, ref.columns)
	}
	got, want := renderAll(rows), renderAll(ref.rows)
	cut := ref.limit >= 0 && ref.limit < len(want)
	if ref.ordered || !cut {
		if cut {
			want = want[:ref.limit]
		}
		if !ref.ordered {
			slices.Sort(got)
			want = slices.Clone(want)
			slices.Sort(want)
		}
		if !slices.Equal(got, want) {
			return fmt.Sprintf("rows (ordered %v):\n%s\nwant:\n%s", ref.ordered, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		return ""
	}
	if len(got) != ref.limit {
		return fmt.Sprintf("%d rows, want LIMIT %d of %d", len(got), ref.limit, len(want))
	}
	left := map[string]int{}
	for _, w := range want {
		left[w]++
	}
	for _, g := range got {
		if left[g] == 0 {
			return fmt.Sprintf("row %s is not in the unlimited result:\n%s", g, strings.Join(want, "\n"))
		}
		left[g]--
	}
	return ""
}

// requireReference fails t unless rs holds the reference's answer to sql
// over wh.
func requireReference(t testing.TB, wh *warehouse.Warehouse, defaultDB, sql string, rs *sqlengine.ResultSet) {
	t.Helper()
	ref, err := referenceQuery(wh, defaultDB, sql)
	if err != nil {
		t.Fatalf("reference %q: %v", sql, err)
	}
	if diff := ref.match(rs.Columns, rs.Rows); diff != "" {
		t.Errorf("%s: %s", sql, diff)
	}
}
