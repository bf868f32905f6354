package orc

import (
	"testing"

	"repro/internal/datum"
)

// TestValueStringsAreViewsFooterStringsAreCopies draws the ownership line
// inside the package: every value-stream string a cursor hands out lies
// inside the reader's data (nothing was copied), while nothing a Footer
// holds does — column names and the string statistics are its own memory, so
// the metastore can keep a Footer without keeping the file.
func TestValueStringsAreViewsFooterStringsAreCopies(t *testing.T) {
	data, err := WriteRows(geomSchema, goldenFileRows(), goldenFileOpts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := r.NewCursor(geomCols, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := drainBatch(cur, len(geomCols), 50)
	if err != nil {
		t.Fatal(err)
	}
	views := 0
	for _, row := range rows {
		for _, d := range row {
			if d.Typ != datum.TypeString || d.Null {
				continue
			}
			if !inside(d.S, data) {
				t.Fatalf("value %q was copied out of the file", d.S)
			}
			views++
		}
	}
	if views == 0 {
		t.Fatal("the file has no string values")
	}

	for _, c := range r.Schema().Columns {
		if inside(c.Name, data) {
			t.Errorf("column name %q aliases the file", c.Name)
		}
		stats, err := r.RowGroupStats(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		for g, st := range stats {
			if st.MinS != "" && inside(st.MinS, data) || st.MaxS != "" && inside(st.MaxS, data) {
				t.Errorf("statistics of %s, row group %d alias the file", c.Name, g)
			}
		}
	}
}

// TestWriterStatisticsOwnTheirStrings: a writer fed view-aliasing strings
// (a rewrite streaming rows out of the file it replaces) keeps none of them.
// The extremes it records per row group are the only strings it holds on to
// once the group is flushed.
func TestWriterStatisticsOwnTheirStrings(t *testing.T) {
	src, err := WriteRows(geomSchema, geomRows(200, nullsNone, 5), WriterOptions{RowGroupRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(src)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := r.NewCursor(geomCols, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(geomSchema, WriterOptions{RowGroupRows: 64})
	for {
		row, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		if !inside(row[3].S, src) {
			t.Fatal("the rows fed to the writer are not views; the test proves nothing")
		}
		if err := w.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	w.flushRowGroup()
	checked := 0
	for _, st := range w.s.stats {
		if st.MinS == "" && st.MaxS == "" {
			continue
		}
		if inside(st.MinS, src) || inside(st.MaxS, src) {
			t.Fatalf("writer statistics [%q, %q] alias the file the rows came from", st.MinS, st.MaxS)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no string statistics were recorded")
	}
}
