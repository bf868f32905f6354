package orc

import (
	"fmt"
	"runtime/debug"
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

// skipUnderRace skips an allocation pin in a -race binary, where sync.Pool
// drops a share of its puts at random, so a writer may find the pool empty.
// CI runs the allocation pins in a step of their own, without -race.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not meaningful under -race")
			}
		}
	}
}

// TestWriterAllocations pins the write path: a file written through scratch
// an earlier writer released — NewWriter, the rows, Finish, Release —
// allocates the Writer and, per row group, the owned copies of each string
// column's extremes (ownedExtremes), and nothing per value: the same count
// for 100 rows as for 4,000 in one row group, and four more per further row
// group of geomSchema's two string columns. Finish's bytes are the scratch's.
func TestWriterAllocations(t *testing.T) {
	skipUnderRace(t)
	write := func(rows [][]datum.Datum, opts WriterOptions) float64 {
		return testing.AllocsPerRun(10, func() {
			w := NewWriter(geomSchema, opts)
			for _, r := range rows {
				if err := w.AppendRow(r); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := w.Finish(); err != nil {
				t.Fatal(err)
			}
			w.Release()
		})
	}
	oneGroup := WriterOptions{RowGroupRows: 5000}
	small, large := write(geomRows(100, nullsNone, 1), oneGroup), write(geomRows(4000, nullsNone, 1), oneGroup)
	if small != large {
		t.Errorf("one row group allocates %v times for 100 rows and %v for 4,000: not constant per file", small, large)
	}
	// The Writer, and name's and cat's two extremes.
	if large != 5 {
		t.Errorf("a one-group file allocates %v times, want 5", large)
	}
	groups := WriterOptions{RowGroupRows: 100}
	if ten, forty := write(geomRows(1000, nullsNone, 1), groups), write(geomRows(4000, nullsNone, 1), groups); forty-ten != 4*30 {
		t.Errorf("10 row groups allocate %v times, 40 allocate %v: want 4 per further group", ten, forty)
	}
}

// TestReleasedScratchHoldsNoString: the scratch a writer hands back refers
// to no string — not the pending rows of an unfinished write, not a
// dictionary trial, not a row group's extremes — so a pooled scratch pins no
// caller's file.
func TestReleasedScratchHoldsNoString(t *testing.T) {
	for _, finish := range []bool{true, false} {
		w := NewWriter(geomSchema, WriterOptions{RowGroupRows: 64})
		for _, r := range geomRows(300, nullsHalf, 3) {
			if err := w.AppendRow(r); err != nil {
				t.Fatal(err)
			}
		}
		if finish {
			if _, err := w.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		s := w.s
		w.Release()
		w.Release() // a second Release is a no-op
		if w.s != nil {
			t.Fatal("the writer still holds its scratch")
		}
		held := func(strs []string) bool {
			for _, v := range strs[:cap(strs)] {
				if v != "" {
					return true
				}
			}
			return false
		}
		for i := range s.pending {
			if held(s.pending[i].strs) {
				t.Errorf("finish=%v: column %d's pending values still hold strings", finish, i)
			}
		}
		if held(s.strs) || held(s.order) || len(s.dict) != 0 {
			t.Errorf("finish=%v: the value or dictionary scratch still holds strings", finish)
		}
		for _, st := range s.stats[:cap(s.stats)] {
			if st.MinS != "" || st.MaxS != "" {
				t.Errorf("finish=%v: statistics still hold [%q, %q]", finish, st.MinS, st.MaxS)
				break
			}
		}
		if _, err := w.Finish(); err == nil {
			t.Error("Finish after Release succeeded")
		}
		if err := w.AppendRow(geomRows(1, nullsNone, 1)[0]); err == nil {
			t.Error("AppendRow after Release succeeded")
		}
	}
}
