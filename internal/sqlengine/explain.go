package sqlengine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/obs"
)

// ExplainAnalyzeStmtCtx executes stmt with tracing enabled and renders an
// EXPLAIN ANALYZE-style annotated operator tree: per-operator rows, bytes,
// parse calls and cache hits, counters only, so the rendering is the same on
// every run. The result set and metrics of the (actually executed) query are
// returned alongside the rendering. The traced execution honors cancellation
// and the engine query timeout exactly like QueryStmtCtx.
func (e *Engine) ExplainAnalyzeStmtCtx(ctx context.Context, stmt *SelectStmt) (string, *ResultSet, *Metrics, error) {
	plan, rs, m, err := e.queryStmt(ctx, stmt, true)
	if err != nil {
		return "", nil, nil, err
	}
	return RenderExplainAnalyze(plan, m), rs, m, nil
}

// explainLine is one operator row: the plan text plus its annotation.
type explainLine struct {
	op   string
	note string
}

// RenderExplainAnalyze draws the annotated operator tree for an executed
// plan. Annotations come from the trace recorded in m (m.Trace may be nil,
// e.g. for an EXPLAIN-only statement — then only the plan shape prints).
func RenderExplainAnalyze(plan *PhysicalPlan, m *Metrics) string {
	trace := m.Trace
	span := func(name string) *obs.Span {
		if trace == nil {
			return nil
		}
		for _, c := range trace.Children() {
			if c.Name == name || strings.HasPrefix(c.Name, name+" ") {
				return c
			}
		}
		return nil
	}
	attr := func(s *obs.Span, keys ...string) string {
		if s == nil {
			return ""
		}
		var parts []string
		for _, k := range keys {
			if v := s.Attr(k); v != "" {
				parts = append(parts, k+"="+v)
			}
		}
		return strings.Join(parts, " ")
	}

	var lines []explainLine
	add := func(op, note string) { lines = append(lines, explainLine{op, note}) }

	if plan.Limit >= 0 {
		add(fmt.Sprintf("Limit %d", plan.Limit), attr(span("limit"), "out"))
	}
	for i, o := range plan.OrderBy {
		dir := "ASC"
		if o.Desc {
			dir = "DESC"
		}
		note := ""
		if i == 0 {
			note = attr(span("sort"), "rows", "row-ops")
		}
		add(fmt.Sprintf("Sort %s %s", o.Expr.String(), dir), note)
	}
	if plan.Distinct {
		add("Distinct", attr(span("distinct"), "out", "row-ops"))
	}
	if plan.Having != nil {
		add("Having "+plan.Having.String(), "")
	}
	scanSpan := span("scan")
	if plan.aggregate {
		op := "Aggregate ["
		for i, g := range plan.GroupBy {
			if i > 0 {
				op += ", "
			}
			op += g.String()
		}
		op += "] aggs=["
		for i, a := range plan.Aggs {
			if i > 0 {
				op += ", "
			}
			op += a.String()
		}
		op += "]"
		add(op, attr(span("aggregate"), "groups", "row-ops"))
	}
	op := "Project ["
	for i, it := range plan.Items {
		if i > 0 {
			op += ", "
		}
		if it.Star {
			op += "*"
		} else {
			op += it.OutputName()
		}
	}
	add(op+"]", "")
	if plan.Filter != nil {
		add("Filter "+plan.Filter.String(), attr(scanSpan, "out", "prefilter-skipped"))
	}
	if plan.Join != nil {
		add(fmt.Sprintf("HashJoin build=%s.%s", plan.Join.Build.DB, plan.Join.Build.Table),
			attr(span("join-build"), "rows", "bytes", "parse-docs"))
	}

	scanOp := fmt.Sprintf("Scan %s.%s cols=%v", plan.Scan.DB, plan.Scan.Table, plan.Scan.Columns)
	if plan.Scan.SARG != nil {
		scanOp += " sarg=(" + plan.Scan.SARG.String() + ")"
	}
	if len(plan.Scan.PreFilters) > 0 {
		scanOp += " prefilters=["
		for i, pf := range plan.Scan.PreFilters {
			if i > 0 {
				scanOp += ", "
			}
			scanOp += pf.Column + "~" + pf.Needle
		}
		scanOp += "]"
	}
	add(scanOp, attr(scanSpan,
		"splits", "rows", "bytes", "parse-docs", "parse-calls", "parse-bytes-skipped",
		"rowgroups", "rowgroups-skipped", "cache-values"))

	// Split detail lines nest under the scan.
	var splits []*obs.Span
	if scanSpan != nil {
		splits = scanSpan.Children()
	}
	for i, sp := range splits {
		guide := "├─"
		if i == len(splits)-1 {
			guide = "└─"
		}
		src := sp.Attr("source")
		if src == "" {
			src = "?"
		}
		add(fmt.Sprintf("  %s %s: %s", guide, sp.Name, src),
			attr(sp, "rows", "out", "bytes", "parse-docs", "cache-values", "rowgroups-skipped"))
	}

	// Align annotations in one column after the widest operator text.
	width := 0
	for _, l := range lines {
		if len(l.op) > width {
			width = len(l.op)
		}
	}
	var sb strings.Builder
	sb.WriteString("EXPLAIN ANALYZE\n")
	for _, l := range lines {
		if l.note == "" {
			sb.WriteString(l.op)
		} else {
			fmt.Fprintf(&sb, "%-*s  | %s", width, l.op, l.note)
		}
		sb.WriteByte('\n')
	}

	fmt.Fprintf(&sb, "totals:    %s\n", m.String())
	fmt.Fprintf(&sb, "plan:      %d expr nodes\n", m.PlanExprNodes)
	return sb.String()
}
