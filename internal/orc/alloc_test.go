package orc

import (
	"fmt"
	"testing"

	"repro/internal/datum"
)

// allocFile writes groups row groups of rgRows rows over three columns that
// between them take the dictionary, plain-string and RLE paths.
func allocFile(t *testing.T, groups, rgRows int) *Reader {
	t.Helper()
	schema := Schema{Columns: []Column{
		{Name: "cat", Type: datum.TypeString},
		{Name: "name", Type: datum.TypeString},
		{Name: "seq", Type: datum.TypeInt64},
	}}
	rows := make([][]datum.Datum, groups*rgRows)
	for i := range rows {
		rows[i] = []datum.Datum{
			datum.Str(fmt.Sprintf("category-%d-with-a-long-name", i%5)),
			datum.Str(fmt.Sprintf("name-%07d", i)),
			datum.Int(int64(i / 50)),
		}
		if i%9 == 4 {
			rows[i][1] = datum.NullOf(datum.TypeString)
		}
	}
	data, err := WriteRows(schema, rows, WriterOptions{RowGroupRows: rgRows})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRowGroups() != groups {
		t.Fatalf("file has %d row groups, want %d", r.NumRowGroups(), groups)
	}
	return r
}

// TestCursorAllocations pins the cursor's allocation behaviour, which is what
// alloc_kb_per_query on the cached read path is made of: opening a cursor
// and draining it into a reused batch costs a fixed number of allocations —
// the same for 2 row groups of 100 rows as for 10 of 1,000 — and once the
// first batch is out, NextBatch allocates nothing, across row-group
// boundaries included. AllocsPerRun counts exactly, so this repeats.
func TestCursorAllocations(t *testing.T) {
	cols := []string{"cat", "name", "seq"}
	const capacity = 64
	dst := make([][]datum.Datum, len(cols))
	for i := range dst {
		dst[i] = make([]datum.Datum, capacity)
	}
	drain := func(r *Reader) float64 {
		return testing.AllocsPerRun(20, func() {
			cur, err := r.NewCursor(cols, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for {
				n, err := cur.NextBatch(dst, capacity)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					return
				}
			}
		})
	}
	small, large := drain(allocFile(t, 2, 100)), drain(allocFile(t, 10, 1000))
	if small != large {
		t.Errorf("open+drain allocates %v times for 200 rows and %v for 10,000: not constant per cursor", small, large)
	}
	// The cursor, its three per-column slices, the include mask and one
	// dictionary.
	if large > 6 {
		t.Errorf("open+drain allocates %v times, want at most 6", large)
	}

	cur, err := allocFile(t, 10, 1000).NewCursor(cols, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := cur.NextBatch(dst, capacity); n != capacity || err != nil {
		t.Fatalf("first batch = (%d, %v)", n, err)
	}
	// 101 further batches of 64 rows cross six row-group boundaries.
	perBatch := testing.AllocsPerRun(100, func() {
		if n, err := cur.NextBatch(dst, capacity); n != capacity || err != nil {
			t.Fatalf("batch = (%d, %v)", n, err)
		}
	})
	if perBatch != 0 {
		t.Errorf("NextBatch after the first allocates %v times per call, want 0", perBatch)
	}
}
