package baseline

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/jsonpath"
	"repro/internal/sqlengine"
)

// TestCostModelCalibrationShape validates the cost model's central
// assumption against the real substrates on this machine: tree parsing must
// be slower per byte than the engine's own projection (the streaming
// sqlengine.StreamBackend, through a plan's PathCalls as a query runs it),
// which in turn must be slower than a raw substring prefilter. The test
// asserts the ordering (which every experiment's conclusions rest on), not
// absolute rates (hardware varies); the measured rates are logged so the
// constants in cost.go can be re-calibrated when porting.
//
// The Mison-style structural index is logged, not ordered: since the tree
// parser hands values out as views of the document (PR 24) it measures at
// tree speed here, a tie that fell either way from run to run. The model's
// index constant is the paper's (EXPERIMENTS.md, "Known deviations").
func TestCostModelCalibrationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration timing skipped in -short mode")
	}
	// A realistic mid-size document.
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i < 24; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`"field_`)
		sb.WriteByte(byte('a' + i%26))
		sb.WriteByte(byte('0' + i/26))
		sb.WriteString(`":"`)
		sb.WriteString(strings.Repeat("v", 20))
		sb.WriteString(`"`)
	}
	sb.WriteString(`,"target":"needle-value"}`)
	doc := sb.String()
	call := &sqlengine.JSONPathExpr{Path: jsonpath.MustCompile("$.target")}
	const iters = 3000

	// The production lane evaluates a planned call site, whose path the plan
	// compiled into its column's PathSet.
	plan, _, err := sqlengine.NewEngine(saleLogs(t), sqlengine.WithDefaultDB("mydb")).
		PlanOnly(`SELECT get_json_object(sale_logs, '$.target') FROM mydb.t`)
	if err != nil {
		t.Fatal(err)
	}
	var planned *sqlengine.JSONPathExpr
	sqlengine.VisitPlanExprs(plan, func(e sqlengine.Expr) {
		if c, ok := e.(*sqlengine.JSONPathExpr); ok {
			planned = c
		}
	})
	calls := sqlengine.PlanPathCalls(plan)

	var meter sqlengine.ParseMeter
	timePer := func(eval sqlengine.DocEvaluator, call *sqlengine.JSONPathExpr, uniquePrefix bool) float64 {
		docs := make([]string, iters)
		for i := range docs {
			if uniquePrefix {
				// Defeat the per-document memo so every call does real work.
				docs[i] = `{"i":` + itoa(i) + `,` + doc[1:]
			} else {
				docs[i] = doc
			}
		}
		start := time.Now()
		for _, d := range docs {
			if v, ok := eval.Extract(d, call); !ok || v != "needle-value" {
				t.Fatal("extraction failed")
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters*len(doc))
	}

	// The fastest of five interleaved rounds, so a test package scheduled
	// beside this one cannot slow one side only.
	jacksonNs, streamNs, misonNs := math.Inf(1), math.Inf(1), math.Inf(1)
	for round := 0; round < 5; round++ {
		jacksonNs = math.Min(jacksonNs, timePer(JacksonBackend{}.NewDocEvaluator(&meter, nil), call, true))
		streamNs = math.Min(streamNs, timePer(sqlengine.StreamBackend{}.NewDocEvaluator(&meter, calls), planned, true))
		misonNs = math.Min(misonNs, timePer(MisonBackend{}.NewDocEvaluator(&meter, nil), call, true))
	}

	// Raw substring scan (the prefilter primitive), for the needle the planner
	// derives from get_json_object(doc, '$.target') = 'needle-value': the bare
	// literal, whose first byte is rare in a document, where a quoted one
	// would stop at every quote. Also the fastest of five rounds.
	prefilterNs := math.Inf(1)
	for round := 0; round < 5; round++ {
		start := time.Now()
		hits := 0
		for i := 0; i < iters; i++ {
			if strings.Contains(doc, "needle-value") {
				hits++
			}
		}
		prefilterNs = math.Min(prefilterNs, float64(time.Since(start).Nanoseconds())/float64(iters*len(doc)))
		if hits != iters {
			t.Fatal("prefilter needle missing")
		}
	}

	cost := sqlengine.DefaultCostModel()
	t.Logf("measured ns/byte: tree=%.2f stream=%.2f index=%.2f prefilter=%.3f (model: tree %.1f, stream %.1f, index %.1f, prefilter %.1f)",
		jacksonNs, streamNs, misonNs, prefilterNs,
		cost.ParseNsPerByteTree, cost.ParseNsPerByteStream, cost.ParseNsPerByteIndex, cost.PrefilterNsPerByte)

	if jacksonNs <= streamNs {
		t.Errorf("tree parse (%.2f ns/B) should cost more than streaming projection (%.2f ns/B)", jacksonNs, streamNs)
	}
	if streamNs <= prefilterNs {
		t.Errorf("streaming projection (%.2f ns/B) should cost more than raw prefilter (%.3f ns/B)", streamNs, prefilterNs)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [12]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
