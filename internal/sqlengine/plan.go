package sqlengine

import (
	"fmt"

	"repro/internal/orc"
)

// ScanSourceFactory opens one split of a scan. Maxson substitutes its
// combined (primary + cache) reader by replacing a ScanNode's Factory.
type ScanSourceFactory interface {
	// NumSplits returns the partition count.
	NumSplits() (int, error)
	// Open opens split i, metering its reads into m. The returned schema
	// must be identical across splits. prev is the source this walk's last
	// Open returned, once its split ran dry, or nil: the factory may re-aim
	// it at split i and return it — its cursors, extraction and scratch
	// reused, its reads metered as a fresh open's — or ignore it. A walk
	// hands each source on at most once and reads it no more.
	Open(split int, m *Metrics, prev BatchSource) (BatchSource, error)
	// Schema returns the output schema.
	Schema() (RowSchema, error)
}

// ScanNode reads a base table. Columns lists the storage columns to read;
// SARG is an optional storage-level predicate for row-group skipping.
type ScanNode struct {
	DB      string
	Table   string
	Binding string // alias used to qualify output columns
	Columns []string
	SARG    *orc.SARG
	// Extract lists the get_json_object values the scan produces: the
	// planner makes one entry of every distinct (document column, path) pair
	// the plan's calls read, and the scan places them, in order, in the last
	// columns of its batches, after the columns it reads (ExtractRef binds a
	// call to its column). Maxson's plan modifier moves the entries a cache
	// serves onto cache columns, which the Value Combiner stitches between
	// Columns and the rest; a shared pass extracts the union of its
	// participants' lists.
	Extract []Extraction
	// Factory overrides the default warehouse file reader (set by Maxson's
	// plan modifier). When nil, the engine builds a default factory.
	Factory ScanSourceFactory
	// schema is filled at plan time.
	schema RowSchema
}

// Schema returns the scan's output schema.
func (s *ScanNode) Schema() RowSchema { return s.schema }

// SetSchema installs the output schema (used by plan modifiers that change
// the scan's output shape).
func (s *ScanNode) SetSchema(schema RowSchema) { s.schema = schema }

// PhysicalPlan is the executable form of one SELECT. The executor runs the
// scan (and join build) partitions in parallel, then the serial tail.
type PhysicalPlan struct {
	Scan *ScanNode

	// Join, when non-nil, hash-joins Scan (probe side) with Build.
	Join *JoinNode

	// Filter is the bound WHERE predicate over the combined input schema
	// (after join, before aggregation); nil when absent.
	Filter Expr

	// GroupBy keys and extracted aggregates; empty GroupBy with non-empty
	// Aggs is a global aggregation.
	GroupBy []Expr
	Aggs    []*Aggregate

	// Having filters groups post-aggregation (bound against the
	// [group keys..., agg values...] intermediate row).
	Having Expr

	// Items are the output projections. In aggregate plans they are bound
	// against [group keys..., agg values...]; otherwise against the input
	// schema.
	Items []SelectItem

	// OrderBy/Limit/Distinct are applied last, in that order (Distinct is
	// applied before Sort, matching SparkSQL).
	OrderBy  []OrderItem
	Limit    int
	Distinct bool

	// InputSchema is the schema filters and projections are bound against
	// (scan schema, or joined schema).
	InputSchema RowSchema
	// OutputSchema names the result columns.
	OutputSchema RowSchema

	// aggregate indicates the aggregation path is active.
	aggregate bool
	// aggVals counts the MIN and MAX aggregates in Aggs: the only ones that
	// keep a value, not just a count and a sum, per group.
	aggVals int
}

// rowLimit reports the LIMIT that may stop the plan's scan: one with no
// ORDER BY, DISTINCT or aggregate, whose answer is the first Limit rows in
// split order, so no row past them is needed. -1 means every row is read.
func (p *PhysicalPlan) rowLimit() int {
	if p.aggregate || p.Distinct || len(p.OrderBy) > 0 {
		return -1
	}
	return p.Limit
}

// JoinNode describes a hash equi-join.
type JoinNode struct {
	Build *ScanNode // right side, materialized into a hash table
	// LeftKeys/RightKeys are bound key expressions; LeftKeys bind against
	// the probe scan schema, RightKeys against the build scan schema.
	LeftKeys  []Expr
	RightKeys []Expr
}

// String renders a plan outline for diagnostics and the Fig 9-style
// plan-comparison output.
func (p *PhysicalPlan) String() string {
	out := ""
	if p.Limit >= 0 {
		out += fmt.Sprintf("Limit %d\n", p.Limit)
	}
	for _, o := range p.OrderBy {
		dir := "ASC"
		if o.Desc {
			dir = "DESC"
		}
		out += fmt.Sprintf("Sort %s %s\n", o.Expr.String(), dir)
	}
	if p.Distinct {
		out += "Distinct\n"
	}
	if p.Having != nil {
		out += "Having " + p.Having.String() + "\n"
	}
	if p.aggregate {
		out += "Aggregate ["
		for i, g := range p.GroupBy {
			if i > 0 {
				out += ", "
			}
			out += g.String()
		}
		out += "] aggs=["
		for i, a := range p.Aggs {
			if i > 0 {
				out += ", "
			}
			out += a.String()
		}
		out += "]\n"
	}
	out += "Project ["
	for i, it := range p.Items {
		if i > 0 {
			out += ", "
		}
		if it.Star {
			out += "*"
		} else {
			out += it.OutputName()
		}
	}
	out += "]\n"
	if p.Filter != nil {
		out += "Filter " + p.Filter.String() + "\n"
	}
	if p.Join != nil {
		out += fmt.Sprintf("HashJoin build=%s.%s\n", p.Join.Build.DB, p.Join.Build.Table)
	}
	out += fmt.Sprintf("Scan %s.%s cols=%v", p.Scan.DB, p.Scan.Table, p.Scan.Columns)
	if p.Scan.SARG != nil {
		out += " sarg=(" + p.Scan.SARG.String() + ")"
	}
	if p.Scan.Factory != nil {
		out += " source=custom"
	}
	return out
}
