package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/jsonpath"
	"repro/internal/obs"
	"repro/internal/pathkey"
	"repro/internal/sjson"
	"repro/internal/sqlengine"
)

// ExtractBenchRow is one (lane, mode) cell of the single-pass extraction
// study: wall time and allocator pressure per operation plus the simulated
// parse accounting (bytes charged vs bytes the early exit skipped).
type ExtractBenchRow struct {
	Lane        string // "kernel" | "wildcard" | "populate" | "incremental" | "ingest" | "fallback"
	Mode        string // "stream" | "tree" (kernel and wildcard lanes only)
	NsPerOp     int64
	AllocsPerOp int64
	BytesPerOp  int64
	// ParseBytes is the simulated parse volume one operation is charged for
	// (bytes scanned); SkippedBytes is what the trie descent + early exit
	// never tokenized. Tree rows always skip zero.
	ParseBytes   int64
	SkippedBytes int64
}

// ExtractBenchResult compares the streaming multi-path extractor against
// Parse + Eval on the raw kernel (point paths and a wildcard), and measures
// the consumers that run it in bulk: Cacher.PopulateCtx (from nothing, and
// the night after one new split), the ingest of an appended split, and the
// combiner's uncovered-split fallback. Populate and fallback once had a
// tree-parse switch to compare against; EXPERIMENTS.md keeps its last
// measured values.
type ExtractBenchResult struct {
	Rows []ExtractBenchRow
}

func (r *ExtractBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-8s %12s %12s %12s %14s %14s\n",
		"lane", "mode", "ns/op", "allocs/op", "B/op", "parse-bytes", "skipped-bytes")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %-8s %12d %12d %12d %14d %14d\n",
			row.Lane, row.Mode, row.NsPerOp, row.AllocsPerOp, row.BytesPerOp,
			row.ParseBytes, row.SkippedBytes)
	}
	return strings.TrimRight(b.String(), "\n")
}

// benchOp runs testing.Benchmark around op and fills the measured cells.
// prepare, when not nil, runs before every op with the timer stopped.
func benchOp(lane, mode string, parseBytes, skipped int64, prepare, op func() error) (ExtractBenchRow, error) {
	var opErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if prepare != nil {
				b.StopTimer()
				err := prepare()
				b.StartTimer()
				if err != nil {
					opErr = fmt.Errorf("%s/%s: prepare: %w", lane, mode, err)
					b.FailNow()
				}
			}
			if err := op(); err != nil {
				opErr = fmt.Errorf("%s/%s: %w", lane, mode, err)
				b.FailNow()
			}
		}
	})
	if opErr != nil {
		return ExtractBenchRow{}, opErr
	}
	return ExtractBenchRow{
		Lane: lane, Mode: mode,
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		ParseBytes:  parseBytes, SkippedBytes: skipped,
	}, nil
}

// kernelDoc builds the microbenchmark document: 30 fields, two of which the
// query wants — the Nobench-style access pattern from the issue.
func kernelDoc() string {
	var sb strings.Builder
	sb.WriteString("{")
	for i := 0; i < 30; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, `"field%02d": {"inner": "%s", "n": %d}`,
			i, strings.Repeat("y", 40), i*7)
	}
	sb.WriteString("}")
	return sb.String()
}

// wildcardDoc builds the array-iteration microbenchmark document: a 24-element
// array of sale-log-style objects under "a", one wanted field ("b") per
// element among several the streaming kernel skips at tokenizer speed but the
// tree baseline must materialize, followed by a bulky tail the early exit
// never tokenizes.
func wildcardDoc() string {
	var sb strings.Builder
	sb.WriteString(`{"a": [`)
	for i := 0; i < 24; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb,
			`{"b": %d, "name": "item-%02d", "tags": ["new", "sale"], "meta": {"src": "pos", "seq": %d, "note": "%s"}}`,
			i*3, i, i, strings.Repeat("p", 24))
	}
	fmt.Fprintf(&sb, `], "tail": {"blob": "%s"}}`, strings.Repeat("z", 400))
	return sb.String()
}

// RunExtractBench measures the extraction lanes.
// Feeds BENCH_extract.json via maxson-bench -exp extract.
func RunExtractBench(ctx context.Context, rows int, seed int64) (*ExtractBenchResult, error) {
	out := &ExtractBenchResult{}

	// --- kernel lane: 2 paths out of a 30-field document ---
	// The stream rows run the production path: a jsonpath.Extractor over the
	// document string, scalars read out. The tree rows go through
	// Parser.Parse's []byte door, which copies the document once.
	kdoc := kernelDoc()
	doc := []byte(kdoc)
	set, err := jsonpath.NewPathSet(
		jsonpath.MustCompile("$.field03.inner"),
		jsonpath.MustCompile("$.field07.n"),
	)
	if err != nil {
		return nil, err
	}
	x := jsonpath.NewExtractor(set)
	scanned := x.Extract(kdoc)
	if err := x.Err(); err != nil {
		return nil, err
	}
	row, err := benchOp("kernel", "stream", int64(scanned), int64(len(doc)-scanned), nil, func() error {
		x.Extract(kdoc)
		_, ok3 := x.Scalar(0)
		_, ok7 := x.Scalar(1)
		if !ok3 || !ok7 {
			return fmt.Errorf("kernel paths missing")
		}
		return x.Err()
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, row)
	var parser sjson.Parser
	p3, p7 := jsonpath.MustCompile("$.field03.inner"), jsonpath.MustCompile("$.field07.n")
	row, err = benchOp("kernel", "tree", int64(len(doc)), 0, nil, func() error {
		parser.ResetValues()
		root, err := parser.Parse(doc)
		if err != nil {
			return err
		}
		if p3.Eval(root).IsNull() || p7.Eval(root).IsNull() {
			return fmt.Errorf("kernel paths missing")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, row)

	// --- wildcard lane: $.a[*].b over a 24-element array, bulky tail ---
	// The streaming kernel iterates the array in the same pass (array-
	// iteration trie nodes), collapses the matches in the arena, and exits
	// before the tail; the tree baseline materializes the whole document.
	wstr := wildcardDoc()
	wdoc := []byte(wstr)
	wx := jsonpath.NewExtractor(jsonpath.MustPathSet(jsonpath.MustCompile("$.a[*].b")))
	wscanned := wx.Extract(wstr)
	if _, ok := wx.Scalar(0); !ok || wx.Err() != nil {
		return nil, fmt.Errorf("wildcard path missing: %v", wx.Err())
	}
	// Neither wildcard row renders the collapsed array: the lane compares
	// what it costs to find the matches.
	row, err = benchOp("wildcard", "stream", int64(wscanned), int64(len(wdoc)-wscanned), nil, func() error {
		wx.Extract(wstr)
		return wx.Err()
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, row)
	wpath := jsonpath.MustCompile("$.a[*].b")
	row, err = benchOp("wildcard", "tree", int64(len(wdoc)), 0, nil, func() error {
		parser.ResetValues()
		root, err := parser.Parse(wdoc)
		if err != nil {
			return err
		}
		if wpath.Eval(root).IsNull() {
			return fmt.Errorf("wildcard path missing")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, row)

	// --- populate lane: one full caching cycle over the Table II workload ---
	// A cacher carries forward what the previous generation already holds, so
	// every timed populate runs on a fresh env (a cacher with no history),
	// built with the timer stopped.
	w := BuildWorkload(rows, seed)
	env := newMaxsonEnv(w, sqlengine.StreamBackend{})
	profiles := env.profiles()
	stats, err := env.maxson.CacheSelected(ctx, profiles)
	if err != nil {
		return nil, err
	}
	fresh := func() error {
		env = newMaxsonEnv(w, sqlengine.StreamBackend{})
		return nil
	}
	row, err = benchOp("populate", "stream", stats.BytesScanned, stats.BytesSkipped, fresh, func() error {
		_, err := env.maxson.CacheSelected(ctx, profiles)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, row)

	// --- incremental lane: the same selection the night after, one table
	// having gained a split (a copy of its first third). The append's ingest
	// extracted that split, so the night only links: every split is linked
	// from the previous generation and no raw byte is scanned.
	t01, err := w.WH.ReadAll(w.DB, "t01", []string{"id", "ds", "payload"})
	if err != nil {
		return nil, err
	}
	day := t01[:len(t01)/3]
	appendDay := func() error {
		_, err := w.WH.AppendRows(w.DB, "t01", day)
		return err
	}
	if err := appendDay(); err != nil {
		return nil, err
	}
	if stats, err = env.maxson.CacheSelected(ctx, profiles); err != nil {
		return nil, err
	}
	row, err = benchOp("incremental", "stream", stats.BytesScanned, stats.BytesSkipped, appendDay, func() error {
		_, err := env.maxson.CacheSelected(ctx, profiles)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, row)

	// --- ingest lane: the same day appended to the table the incremental
	// lane cached: AppendRows stores the part and, before it returns, extracts
	// the serving manifest's paths for it into one cache part.
	reg := env.maxson.Obs()
	scannedC, skippedC := reg.Counter("cacher_parse_bytes_scanned_total"), reg.Counter("cacher_parse_bytes_skipped_total")
	ingestedC := reg.Counter("cacher_splits_total", obs.L{K: "mode", V: "ingested"})
	scanned0, skipped0, ingested0 := scannedC.Value(), skippedC.Value(), ingestedC.Value()
	if err := appendDay(); err != nil {
		return nil, err
	}
	if ingestedC.Value() != ingested0+1 {
		return nil, fmt.Errorf("ingest lane: the append was not ingested")
	}
	row, err = benchOp("ingest", "stream", scannedC.Value()-scanned0, skippedC.Value()-skipped0, nil, appendDay)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, row)

	// --- fallback lane: uncovered-split scan synthesizing Q3's paths ---
	// A factory whose manifest records no split serves every split through
	// the engine's extracting split reader: the path of a rewritten split, or
	// of an appended one its ingest did not cache.
	q3 := w.Paths["Q3"]
	var fallbacks []sqlengine.Extraction
	var cacheCols []string
	schema := sqlengine.RowSchema{Cols: []sqlengine.RowCol{{Name: "id", Type: datum.TypeInt64}}}
	for _, p := range q3 {
		fallbacks = append(fallbacks, sqlengine.Extraction{
			Column: "payload", Path: jsonpath.MustCompile(p),
		})
		col := pathkey.Key{DB: w.DB, Table: "t03", Column: "payload", Path: p}.Sanitized()
		cacheCols = append(cacheCols, col)
		schema.Cols = append(schema.Cols, sqlengine.RowCol{Name: col, Type: datum.TypeString})
	}
	factory := core.NewCombinedScanFactory(w.WH, w.DB, "t03",
		[]string{"id"}, nil, &core.Manifest{}, cacheCols, nil,
		fallbacks, false, schema, nil)
	drain := func(m *sqlengine.Metrics) error {
		nSplits, err := factory.NumSplits()
		if err != nil {
			return err
		}
		// Each split re-aims the source of the split before it, as the
		// engine's scan workers do.
		batch := sqlengine.NewRowBatch(1+len(cacheCols), 256)
		var src sqlengine.BatchSource
		for split := 0; split < nSplits; split++ {
			if src, err = factory.Open(split, m, src); err != nil {
				return err
			}
			for {
				n, err := src.NextBatch(batch)
				if err != nil {
					return err
				}
				if n == 0 {
					break
				}
			}
		}
		return nil
	}
	var m sqlengine.Metrics
	if err := drain(&m); err != nil {
		return nil, err
	}
	row, err = benchOp("fallback", "stream", m.Parse.Bytes.Load(), m.Parse.Skipped.Load(), nil, func() error {
		return drain(nil)
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, row)
	return out, nil
}
