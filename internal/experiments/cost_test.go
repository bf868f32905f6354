package experiments

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/experiments/baseline"
	"repro/internal/jsonpath"
	"repro/internal/orc"
	"repro/internal/pathkey"
	"repro/internal/simtime"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// costFixture builds one table, fx.t, of three part files with 20 rows each
// and returns it with its documents in storage order. A document's length is
// fixed by its row number: $.a and $.b sit in front of a pad of 8 or 40
// bytes, so a streamed read of $.b stops well before the end.
func costFixture(t *testing.T) (*warehouse.Warehouse, []string) {
	t.Helper()
	clock := simtime.NewSim(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
	wh := warehouse.New(dfs.New(), warehouse.WithClock(clock),
		warehouse.WithWriterOptions(orc.WriterOptions{RowGroupRows: 8}))
	wh.CreateDatabase("fx")
	schema := orc.Schema{Columns: []orc.Column{{Name: "doc", Type: datum.TypeString}}}
	if err := wh.CreateTable("fx", "t", schema); err != nil {
		t.Fatal(err)
	}
	var docs []string
	for part := 0; part < 3; part++ {
		var rows [][]datum.Datum
		for i := 0; i < 20; i++ {
			pad := strings.Repeat("p", 8+32*(i%2))
			doc := fmt.Sprintf(`{"a":%d,"b":"b%d","pad":"%s"}`, i%10, part, pad)
			docs = append(docs, doc)
			rows = append(rows, []datum.Datum{datum.Str(doc)})
		}
		if _, err := wh.AppendRows("fx", "t", rows); err != nil {
			t.Fatal(err)
		}
	}
	return wh, docs
}

// TestScorerPricesPjWithTheModel pins the scorer to the figures' model and to
// the kernel. P_j is the model's tree parse of the mean document, to the bit,
// and AvgScanBytes is what the engine's streamed read of the same path scans
// per document.
func TestScorerPricesPjWithTheModel(t *testing.T) {
	wh, docs := costFixture(t)
	var docBytes int64
	for _, d := range docs {
		docBytes += int64(len(d))
	}
	avgDoc := float64(docBytes) / float64(len(docs))
	cm := DefaultCostModel()
	wantParseNs := cm.ParseNsPerByteTree*avgDoc + cm.ParseNsPerCall

	e := sqlengine.NewEngine(wh, sqlengine.WithDefaultDB("fx"))
	for _, path := range []string{"$.a", "$.b", "$.pad"} {
		key := pathkey.Key{DB: "fx", Table: "t", Column: "doc", Path: path}
		prof := core.NewScorer(wh).Profile([]pathkey.Key{key}, nil, nil)[0]
		if prof.AvgParseNs != wantParseNs {
			t.Errorf("%s: AvgParseNs = %v, want %v × %v + %v = %v",
				path, prof.AvgParseNs, cm.ParseNsPerByteTree, avgDoc, cm.ParseNsPerCall, wantParseNs)
		}

		_, m, err := e.QueryCtx(context.Background(), "SELECT get_json_object(doc, '"+path+"') v FROM fx.t")
		if err != nil {
			t.Fatal(err)
		}
		pc := m.Parse.Snapshot()
		if pc.Docs != int64(len(docs)) {
			t.Fatalf("%s: the query parsed %d documents, want %d", path, pc.Docs, len(docs))
		}
		if want := float64(pc.Bytes) / float64(pc.Docs); prof.AvgScanBytes != want {
			t.Errorf("%s: AvgScanBytes = %v, the kernel scanned %d B over %d documents (%v)",
				path, prof.AvgScanBytes, pc.Bytes, pc.Docs, want)
		}
		if path != "$.pad" && prof.AvgScanBytes >= avgDoc {
			t.Errorf("%s: AvgScanBytes = %v, want less than the mean document %v", path, prof.AvgScanBytes, avgDoc)
		}
	}
}

// TestCostModelBreakdown checks the model over one query's counters: every
// phase is priced, the phases sum to the simulated time, the backend picks
// the per-byte parse rate, and a streamed read, charged for the bytes it
// scanned, costs less than tree-parsing every byte.
func TestCostModelBreakdown(t *testing.T) {
	wh, _ := costFixture(t)
	e := sqlengine.NewEngine(wh, sqlengine.WithDefaultDB("fx"))
	_, m, err := e.QueryCtx(context.Background(), `SELECT get_json_object(doc, '$.b') v FROM fx.t`)
	if err != nil {
		t.Fatal(err)
	}
	cm := DefaultCostModel()
	stream := sqlengine.StreamBackend{}
	bd := cm.Breakdown(m, stream)
	if bd.Parse <= 0 || bd.Read <= 0 || bd.Compute <= 0 {
		t.Errorf("breakdown = %+v", bd)
	}
	if cm.SimulatedTime(m, stream) != bd.Total() {
		t.Error("SimulatedTime != breakdown total")
	}

	pc := m.Parse.Snapshot()
	for _, c := range []struct {
		backend sqlengine.ParserBackend
		rate    float64
	}{
		{baseline.JacksonBackend{}, cm.ParseNsPerByteTree},
		{stream, cm.ParseNsPerByteStream},
		{baseline.MisonBackend{}, cm.ParseNsPerByteIndex},
	} {
		want := time.Duration(float64(pc.Bytes)*c.rate + float64(pc.Calls)*cm.ParseNsPerCall)
		if got := cm.Breakdown(m, c.backend).Parse; got != want {
			t.Errorf("%s: parse = %v, want %v", c.backend.Name(), got, want)
		}
	}

	if pc.Skipped <= 0 {
		t.Fatalf("Parse.Skipped = %d, want > 0 (early exit should skip bytes)", pc.Skipped)
	}
	treeCost := float64(pc.Bytes+pc.Skipped) * cm.ParseNsPerByteTree
	streamCost := float64(pc.Bytes) * cm.ParseNsPerByteStream
	if streamCost >= treeCost {
		t.Errorf("stream parse cost %.0f >= tree cost %.0f", streamCost, treeCost)
	}
}

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
// parser hands values out as views of the document it measures at tree speed
// here, a tie that fell either way from run to run. The model's index
// constant is the paper's (EXPERIMENTS.md, "Known deviations").
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
	wh, _ := costFixture(t)
	plan, _, err := sqlengine.NewEngine(wh, sqlengine.WithDefaultDB("fx")).
		PlanOnly(`SELECT get_json_object(doc, '$.target') FROM fx.t`)
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
				docs[i] = `{"i":` + strconv.Itoa(i) + `,` + doc[1:]
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
		jacksonNs = math.Min(jacksonNs, timePer(baseline.JacksonBackend{}.NewDocEvaluator(&meter, nil), call, true))
		streamNs = math.Min(streamNs, timePer(sqlengine.StreamBackend{}.NewDocEvaluator(&meter, calls), planned, true))
		misonNs = math.Min(misonNs, timePer(baseline.MisonBackend{}.NewDocEvaluator(&meter, nil), call, true))
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

	cost := DefaultCostModel()
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
