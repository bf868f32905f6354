package orc

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datum"
)

// numericSchema has one string column per kind of content the numeric
// statistics (AllNumeric, MinNum, MaxNum) must tell apart.
var numericSchema = Schema{Columns: []Column{
	{Name: "numbers", Type: datum.TypeString},
	{Name: "mixed", Type: datum.TypeString},
	{Name: "special", Type: datum.TypeString},
	{Name: "words", Type: datum.TypeString},
	{Name: "docs", Type: datum.TypeString},
}}

// numericRows fills numericSchema: plain numbers; numbers with the odd word;
// every spelling strconv.ParseFloat has an opinion on (signs, exponents, hex,
// underscores, Inf and NaN in all their cases, near misses of those, blanks
// and the empty string); words that begin like Inf and NaN; JSON documents.
func numericRows() [][]datum.Datum {
	special := []string{"NaN", "nan", "+Inf", "-inf", "Infinity", "+infinity", "inf", "INF", "1e5", "-.5", ".5", "+7",
		"0x1p-2", "1_000", " 1", "1 ", "", "Info", "infinite", "nano", "+nan", "i", "n", "-", ".", "1e", "0", "-0"}
	rows := make([][]datum.Datum, 300)
	for i := range rows {
		mixed := datum.Str(fmt.Sprint(i * 3))
		if i%40 == 7 {
			mixed = datum.Str("n/a")
		}
		words := datum.Str([]string{"item", "index", "name", "null", "Ice", "Nil"}[i%6] + fmt.Sprint(i))
		if i%11 == 0 {
			words = datum.NullOf(datum.TypeString)
		}
		rows[i] = []datum.Datum{
			datum.Str(fmt.Sprintf("%d.%d", i-150, i%10)),
			mixed,
			datum.Str(special[i%len(special)]),
			words,
			datum.Str(fmt.Sprintf(`{"id":%d,"name":"item-%d"}`, i, i)),
		}
	}
	return rows
}

var numericOpts = WriterOptions{RowGroupRows: 25}

// TestNumericStatsAreTheParents: the writer turns most non-numbers away from
// strconv.ParseFloat before the call (a failed one allocates); the statistics
// it records, and so the file, must be what the unconditional call produced.
// testdata/parent_4b68388_numeric.orc was written from these rows by commit
// 4b68388, the last to call ParseFloat on every value (ORC_UPDATE_GOLDEN=1
// rewrites it from the code under test).
func TestNumericStatsAreTheParents(t *testing.T) {
	golden := filepath.Join("testdata", "parent_4b68388_numeric.orc")
	written, err := WriteRows(numericSchema, numericRows(), numericOpts)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("ORC_UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(golden, written, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(written, want) {
		return
	}
	t.Errorf("the writer no longer emits the parent's bytes for the same rows (%d vs %d bytes)", len(written), len(want))
	got, err := OpenReader(written)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := OpenReader(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range numericSchema.Columns {
		gs, _ := got.RowGroupStats(c.Name)
		ps, _ := parent.RowGroupStats(c.Name)
		for g := range ps {
			if fmt.Sprintf("%+v", gs[g]) != fmt.Sprintf("%+v", ps[g]) {
				t.Errorf("column %s, row group %d:\n got  %+v\n want %+v", c.Name, g, gs[g], ps[g])
			}
		}
	}
}

// TestAppendColumnsWritesTheSameFile: rows handed over column-wise, in
// batches of any size against any row-group size, encode to the bytes the
// same rows give one AppendRow at a time.
func TestAppendColumnsWritesTheSameFile(t *testing.T) {
	rows := geomRows(700, nullsHalf, 5)
	for _, rg := range []int{1, 64, 100, 1000} {
		opts := WriterOptions{RowGroupRows: rg, StripeTargetBytes: 4000}
		want, err := WriteRows(geomSchema, rows, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 7, 64, 100, 1024} {
			w := NewWriter(geomSchema, opts)
			cols := make([][]datum.Datum, len(geomSchema.Columns))
			for i := range cols {
				cols[i] = make([]datum.Datum, batch)
			}
			for off := 0; off < len(rows); off += batch {
				n := min(batch, len(rows)-off)
				for r := 0; r < n; r++ {
					for c := range cols {
						cols[c][r] = rows[off+r][c]
					}
				}
				if err := w.AppendColumns(cols, n); err != nil {
					t.Fatal(err)
				}
			}
			got, err := w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("row groups of %d, batches of %d: AppendColumns wrote %d bytes, AppendRow %d", rg, batch, len(got), len(want))
			}
		}
	}
	w := NewWriter(geomSchema, WriterOptions{})
	if err := w.AppendColumns(make([][]datum.Datum, 2), 0); err == nil {
		t.Error("AppendColumns took the wrong number of columns")
	}
}
