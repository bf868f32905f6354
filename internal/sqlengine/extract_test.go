package sqlengine

import (
	"fmt"
	"testing"

	"repro/internal/datum"
	"repro/internal/jsonpath"
	"repro/internal/sjson"
	"repro/internal/testbed"
)

// extractSplits are the documents of db.t, one slice per part file: NULLs,
// a missing path, an explicit null, a malformed document twice in a row, a
// byte-identical repeat, a repeat across a NULL, and a second split that
// opens on the first one's last document.
var extractSplits = [][]datum.Datum{
	{
		datum.NullOf(datum.TypeString),
		datum.Str(`{"a": [{"b": 1}, {"b": 2}], "x": "s"}`),
		datum.Str(`{"x": null, "a": []}`),
		datum.Str(`{"x" 1}`),
		datum.Str(`{"x" 1}`),
		datum.Str(`{"a": [{"c": 1}, {"b": 3}], "x": "t", "tail": [1, 2, 3]}`),
		datum.Str(`{"a": [{"c": 1}, {"b": 3}], "x": "t", "tail": [1, 2, 3]}`),
		datum.NullOf(datum.TypeString),
		datum.Str(`{"a": [{"c": 1}, {"b": 3}], "x": "t", "tail": [1, 2, 3]}`),
	},
	{
		datum.Str(`{"a": [{"c": 1}, {"b": 3}], "x": "t", "tail": [1, 2, 3]}`),
		datum.Str(`{"a": {"b": 5}, "x": 1.50}`),
	},
}

// extractPaths are the root, a point path, a wildcard and a path no document
// has.
var extractPaths = []string{"$", "$.x", "$.a[*].b", "$.missing"}

// extractReference is get_json_object by tree parse + Eval: NULL for a NULL
// or malformed document, a missing path and an explicit null.
func extractReference(doc datum.Datum, path string) datum.Datum {
	if doc.Null {
		return datum.NullOf(datum.TypeString)
	}
	root, err := sjson.ParseString(doc.S)
	if err != nil {
		return datum.NullOf(datum.TypeString)
	}
	v := jsonpath.MustCompile(path).Eval(root)
	if v.IsNull() {
		return datum.NullOf(datum.TypeString)
	}
	return datum.Str(v.Scalar())
}

// TestBatchExtraction runs the engine's split reader over db.t with an
// Extract list, the document column inside and outside Columns, at batch
// capacities 1, 3 and 1024, each split through the source of the split
// before it, re-aimed. Every extracted value must equal the reference, every
// read column must come through, and the parse meter must count one scan per
// document that differs from the last one its split scanned.
func TestBatchExtraction(t *testing.T) {
	table := testbed.Table{DB: "db", Name: "t", Schema: testbed.IDDoc}
	id := 0
	for _, docs := range extractSplits {
		var rows [][]datum.Datum
		for _, d := range docs {
			rows = append(rows, []datum.Datum{datum.Int(int64(id)), d})
			id++
		}
		table.Parts = append(table.Parts, rows)
	}
	wh := loadBed(t, table)

	for _, layout := range []struct {
		name string
		cols []string
	}{
		{"document outside Columns", []string{"id"}},
		{"document in Columns", []string{"doc", "id"}},
	} {
		for _, capacity := range []int{1, 3, 1024} {
			t.Run(fmt.Sprintf("%s/batch%d", layout.name, capacity), func(t *testing.T) {
				scan := &ScanNode{DB: "db", Table: "t", Columns: layout.cols}
				for _, p := range extractPaths {
					scan.Extract = append(scan.Extract, Extraction{Column: "doc", Path: jsonpath.MustCompile(p)})
				}
				r := NewSplitReader(wh, scan, nil)
				nCols := len(layout.cols)
				id := 0
				var prev BatchSource // each split re-aims the last one's source
				for split, docs := range extractSplits {
					var m Metrics
					src, err := r.Open(split, &m, prev)
					if err != nil {
						t.Fatal(err)
					}
					b := NewRowBatch(nCols+len(extractPaths), capacity)
					row := 0
					for {
						n, err := src.NextBatch(b)
						if err != nil {
							t.Fatal(err)
						}
						if n == 0 {
							break
						}
						for i := 0; i < n; i++ {
							doc := docs[row]
							for c, name := range layout.cols {
								want := datum.Int(int64(id))
								if name == "doc" {
									want = doc
								}
								if got := b.Cols[c][i]; got.Null != want.Null || got.AsString() != want.AsString() {
									t.Errorf("split %d row %d column %s = %v, want %v", split, row, name, got, want)
								}
							}
							for k, p := range extractPaths {
								got, want := b.Cols[nCols+k][i], extractReference(doc, p)
								if got.Null != want.Null || got.S != want.S || got.Typ != datum.TypeString {
									t.Errorf("split %d row %d: %s of %v = %v, want %v", split, row, p, doc, got, want)
								}
							}
							row++
							id++
						}
					}
					if row != len(docs) {
						t.Fatalf("split %d returned %d rows, want %d", split, row, len(docs))
					}
					prev = src
					var scans, scannedLen int64
					last, held := "", false
					for _, d := range docs {
						if !d.Null && (!held || d.S != last) {
							scans++
							scannedLen += int64(len(d.S))
							last, held = d.S, true
						}
					}
					pc := m.Parse.Snapshot()
					// A call is a plan's read of an extracted column: the reader
					// counts none.
					if pc.Docs != scans || pc.Calls != 0 || pc.Bytes+pc.Skipped != scannedLen {
						t.Errorf("split %d metered %+v, want %d docs, no calls and %d bytes scanned or skipped",
							split, pc, scans, scannedLen)
					}
				}
			})
		}
	}
}

// TestBatchExtractionCountsMalformedRows drives the kernel directly: a
// malformed document repeated in the next row is scanned once but counted
// malformed in both rows, and after Reset the same document is scanned
// again.
func TestBatchExtractionCountsMalformedRows(t *testing.T) {
	x := CompileExtraction(nil, []Extraction{{Column: "doc", Path: jsonpath.MustCompile("$.x")}})
	if got := x.Reads(); len(got) != 1 || got[0] != "doc" {
		t.Fatalf("Reads() = %v, want [doc]", got)
	}
	broken := `{"x" 1}`
	in := [][]datum.Datum{{datum.Str(broken), datum.Str(broken), datum.Str(`{"x": 2}`)}}
	out := [][]datum.Datum{make([]datum.Datum, 3)}
	s := x.Split(StreamBackend{})
	c, malformed := s.Fill(in, out, 3)
	if c.Docs != 2 || c.Calls != 0 || malformed != 2 {
		t.Errorf("Fill counted %+v and %d malformed rows, want 2 docs, no calls, 2 malformed rows", c, malformed)
	}
	if !out[0][0].Null || !out[0][1].Null || out[0][2].S != "2" {
		t.Errorf("Fill wrote %v, want [NULL NULL 2]", out[0])
	}
	in[0][0] = datum.Str(`{"x": 2}`)
	if c, _ := s.Fill(in, out, 1); c.Docs != 0 {
		t.Errorf("the last document scanned was scanned again in the same split: %+v", c)
	}
	s.Reset()
	if c, _ := s.Fill(in, out, 1); c.Docs != 1 {
		t.Errorf("after Reset the first document was not scanned: %+v", c)
	}
}
