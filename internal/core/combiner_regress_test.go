package core

import (
	"testing"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/jsonpath"
	"repro/internal/orc"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// TestFallbackBatchReleasesPoolAliases is the regression test for a pool
// retention bug: NextBatch copied the destination batch's primary column
// vectors into the source's reusable s.dst scratch field and kept them there
// after returning. Once the lent batch went back to the pool, the source
// still aliased memory a recycled batch now owned. The fix wipes the aliases
// before every return.
func TestFallbackBatchReleasesPoolAliases(t *testing.T) {
	fs := dfs.New()
	wh := warehouse.New(fs)
	wh.CreateDatabase("db")
	schema := orc.Schema{Columns: []orc.Column{
		{Name: "id", Type: datum.TypeInt64},
		{Name: "doc", Type: datum.TypeString},
	}}
	if err := wh.CreateTable("db", "t", schema); err != nil {
		t.Fatal(err)
	}
	rows := [][]datum.Datum{
		{datum.Int(1), datum.Str(`{"a": 10}`)},
		{datum.Int(2), datum.Str(`{"a": 20}`)},
	}
	if _, err := wh.AppendRows("db", "t", rows); err != nil {
		t.Fatal(err)
	}
	info, err := wh.Table("db", "t")
	if err != nil {
		t.Fatal(err)
	}

	path, err := jsonpath.Compile("$.a")
	if err != nil {
		t.Fatal(err)
	}
	f := NewCombinedScanFactory(wh, "db", "t",
		[]string{"id"}, nil,
		&Manifest{}, []string{"c0"}, nil,
		[]FallbackSpec{{RawColumn: "doc", Path: path}},
		false, sqlengine.RowSchema{}, nil)
	rs, err := f.openFallback(info.Files[0], nil, "fallback-uncovered")
	if err != nil {
		t.Fatal(err)
	}
	src, ok := rs.(*fallbackRowSource)
	if !ok {
		t.Fatalf("openFallback returned %T, want *fallbackRowSource", rs)
	}

	b := sqlengine.NewRowBatch(2, 8)
	n, err := src.NextBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("NextBatch returned %d rows, want 2", n)
	}
	if got := b.Cols[1][0].S; got != "10" {
		t.Fatalf("cache column row 0 = %q, want \"10\"", got)
	}
	// The source must not retain aliases into the caller's batch (pooled, in
	// a real scan) once NextBatch has returned.
	for i := range src.dst {
		if i >= len(src.f.primaryCols) {
			break
		}
		if src.dst[i] != nil {
			t.Fatalf("src.dst[%d] still aliases the caller's batch after NextBatch", i)
		}
	}
}
