package sqlengine

import (
	"strings"

	"repro/internal/datum"
	"repro/internal/jsonpath"
)

// ---- Expression AST ----

// Expr is any scalar expression.
type Expr interface {
	// String renders the expression as SQL-ish text for diagnostics.
	String() string
	// walk visits this node then its children.
	walk(func(Expr))
}

// ColumnRef references a column, optionally table-qualified.
type ColumnRef struct {
	Qualifier string // table name or alias; "" if unqualified
	Name      string
	// index is resolved at bind time.
	index int
}

func (c *ColumnRef) String() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}
func (c *ColumnRef) walk(f func(Expr)) { f(c) }

// Literal is a constant value.
type Literal struct {
	Value datum.Datum
}

func (l *Literal) String() string {
	if l.Value.Typ == datum.TypeString && !l.Value.Null {
		return "'" + l.Value.S + "'"
	}
	return l.Value.AsString()
}
func (l *Literal) walk(f func(Expr)) { f(l) }

// BinaryOp enumerates binary operators.
type BinaryOp uint8

// Binary operators.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpText = map[BinaryOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// Binary is a binary operation.
type Binary struct {
	Op          BinaryOp
	Left, Right Expr
}

func (b *Binary) String() string {
	return "(" + b.Left.String() + " " + binOpText[b.Op] + " " + b.Right.String() + ")"
}
func (b *Binary) walk(f func(Expr)) { f(b); b.Left.walk(f); b.Right.walk(f) }

// Not is logical negation.
type Not struct{ Inner Expr }

func (n *Not) String() string    { return "NOT " + n.Inner.String() }
func (n *Not) walk(f func(Expr)) { f(n); n.Inner.walk(f) }

// IsNull tests SQL NULL-ness (IS NULL / IS NOT NULL).
type IsNull struct {
	Inner  Expr
	Negate bool
}

func (e *IsNull) String() string {
	if e.Negate {
		return e.Inner.String() + " IS NOT NULL"
	}
	return e.Inner.String() + " IS NULL"
}
func (e *IsNull) walk(f func(Expr)) { f(e); e.Inner.walk(f) }

// Like is a SQL LIKE match against a literal pattern ('%' matches any run,
// '_' matches one character).
type Like struct {
	Inner   Expr
	Pattern string
}

func (l *Like) String() string    { return l.Inner.String() + " LIKE '" + l.Pattern + "'" }
func (l *Like) walk(f func(Expr)) { f(l); l.Inner.walk(f) }

// JSONPathExpr is the get_json_object(column, 'path') UDF as the parser
// reads it. Planning replaces every one with an ExtractRef: no plan holds a
// call to evaluate.
type JSONPathExpr struct {
	Column *ColumnRef
	Path   *jsonpath.Path
}

func (j *JSONPathExpr) String() string {
	return "get_json_object(" + j.Column.String() + ", '" + j.Path.String() + "')"
}
func (j *JSONPathExpr) walk(f func(Expr)) { f(j); j.Column.walk(f) }

// ExtractRef is a get_json_object call as a plan reads it: the scan column
// that holds Call's value (ScanNode.Extract). Whatever fills that column —
// the scan's extraction, a cache column, a shared pass — the expression is
// the same, so serving a call from elsewhere rewrites no expression. It
// renders as the call, and it reads no document column.
type ExtractRef struct {
	Call *JSONPathExpr
	// index is resolved at bind time; extracted records that the column is
	// filled by the scan's extraction, so each read is a get_json_object
	// call (ParseMeter.Calls).
	index     int
	extracted bool
}

func (r *ExtractRef) String() string    { return r.Call.String() }
func (r *ExtractRef) walk(f func(Expr)) { f(r) }

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregates.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

var aggText = map[AggFunc]string{
	AggCount: "COUNT", AggSum: "SUM", AggMin: "MIN", AggMax: "MAX", AggAvg: "AVG",
}

// Aggregate is an aggregate call. Arg is nil for COUNT(*).
type Aggregate struct {
	Func AggFunc
	Arg  Expr
	// aggIndex is resolved at bind time in post-aggregation expressions.
	aggIndex int
	// valSlot is where a MIN or MAX keeps its value within a group's stride
	// of the aggregation table (PhysicalPlan.aggVals wide); set at plan time.
	valSlot int
}

func (a *Aggregate) String() string {
	if a.Arg == nil {
		return aggText[a.Func] + "(*)"
	}
	return aggText[a.Func] + "(" + a.Arg.String() + ")"
}
func (a *Aggregate) walk(f func(Expr)) {
	f(a)
	if a.Arg != nil {
		a.Arg.walk(f)
	}
}

// FuncCall is a scalar function call (non-aggregate, non-get_json_object).
type FuncCall struct {
	Name string // lowercase
	Args []Expr
	// op is Name resolved at bind time; a call never bound resolves it each
	// time it is evaluated.
	op funcOp
}

func (fc *FuncCall) String() string {
	parts := make([]string, len(fc.Args))
	for i, a := range fc.Args {
		parts[i] = a.String()
	}
	return fc.Name + "(" + strings.Join(parts, ", ") + ")"
}
func (fc *FuncCall) walk(f func(Expr)) {
	f(fc)
	for _, a := range fc.Args {
		a.walk(f)
	}
}

// Walk visits every node of the expression tree.
func Walk(e Expr, f func(Expr)) {
	if e != nil {
		e.walk(f)
	}
}

// keyRef is a bound reference into an intermediate row (group key or sort
// input), produced by plan-time rewrites. It renders as the text it
// replaced so plan output stays readable.
type keyRef struct {
	name  string
	index int
}

func (k *keyRef) String() string    { return k.name }
func (k *keyRef) walk(f func(Expr)) { f(k) }

// Rewrite rebuilds an expression bottom-up, applying f to every node after
// its children have been rewritten. It does not descend into Aggregate
// arguments (those bind against the pre-aggregation schema) nor into a
// call's document column.
func Rewrite(e Expr, f func(Expr) Expr) Expr {
	switch n := e.(type) {
	case *Binary:
		n.Left = Rewrite(n.Left, f)
		n.Right = Rewrite(n.Right, f)
	case *Not:
		n.Inner = Rewrite(n.Inner, f)
	case *IsNull:
		n.Inner = Rewrite(n.Inner, f)
	case *Like:
		n.Inner = Rewrite(n.Inner, f)
	case *FuncCall:
		for i := range n.Args {
			n.Args[i] = Rewrite(n.Args[i], f)
		}
	}
	return f(e)
}

// ---- Statement AST ----

// SelectItem is one projection with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool // SELECT *
}

// OutputName returns the column name this item produces.
func (s SelectItem) OutputName() string {
	if s.Alias != "" {
		return s.Alias
	}
	return s.Expr.String()
}

// TableRef names a base table with an optional alias.
type TableRef struct {
	DB    string
	Table string
	Alias string
}

// Binding returns the name other clauses refer to this table by.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// JoinClause is an inner equi-join against a second table.
type JoinClause struct {
	Right TableRef
	On    Expr // must reduce to conjunction of equality comparisons
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a parsed SELECT statement.
type SelectStmt struct {
	// Explain renders the physical plan instead of executing.
	Explain  bool
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Join     *JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

// JSONPaths returns every get_json_object occurrence in the statement, in
// syntactic order. The JSONPath Collector consumes this.
func (s *SelectStmt) JSONPaths() []*JSONPathExpr {
	var out []*JSONPathExpr
	visit := func(e Expr) {
		Walk(e, func(n Expr) {
			if j, ok := n.(*JSONPathExpr); ok {
				out = append(out, j)
			}
		})
	}
	for _, it := range s.Items {
		if !it.Star {
			visit(it.Expr)
		}
	}
	if s.Where != nil {
		visit(s.Where)
	}
	for _, g := range s.GroupBy {
		visit(g)
	}
	if s.Having != nil {
		visit(s.Having)
	}
	for _, o := range s.OrderBy {
		visit(o.Expr)
	}
	if s.Join != nil && s.Join.On != nil {
		visit(s.Join.On)
	}
	return out
}
