package core

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/datum"
	"repro/internal/jsonpath"
	"repro/internal/sqlengine"
	"repro/internal/testbed"
)

// TestFallbackBatchReleasesPoolAliases is the regression test for a pool
// retention bug: the fallback source copied the destination batch's primary
// column vectors into a reusable scratch field and kept them there after
// returning. Once the lent batch went back to the pool, the source still
// aliased memory a recycled batch now owned. The engine's extracting split
// reader, which serves fallback splits now, wipes the aliases before every
// return: nothing reachable from the source it opens may point into the
// batch once NextBatch is done.
func TestFallbackBatchReleasesPoolAliases(t *testing.T) {
	bed := testbed.New(testbed.Config{})
	if err := bed.Load(0, testbed.Table{DB: "db", Name: "t", Schema: testbed.IDDoc, Parts: [][][]datum.Datum{{
		{datum.Int(1), datum.Str(`{"a": 10}`)},
		{datum.Int(2), datum.Str(`{"a": 20}`)},
	}}}); err != nil {
		t.Fatal(err)
	}

	path, err := jsonpath.Compile("$.a")
	if err != nil {
		t.Fatal(err)
	}
	// An empty manifest serves no split: split 0 opens as fallback-uncovered.
	f := NewCombinedScanFactory(bed.WH, "db", "t",
		[]string{"id"}, nil,
		&Manifest{}, []string{"c0"}, nil,
		[]sqlengine.Extraction{{Column: "doc", Path: path}},
		false, sqlengine.RowSchema{}, nil)
	var m sqlengine.Metrics
	src, err := f.Open(0, &m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.ScanModes() != sqlengine.ScanFallbackUncovered {
		t.Fatalf("split opened in modes %b, want fallback-uncovered", m.ScanModes())
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
	// a real scan) once NextBatch has returned. The batch's columns are one
	// slab, first column first.
	lo := uintptr(unsafe.Pointer(&b.Cols[0][0]))
	hi := uintptr(unsafe.Pointer(&b.Cols[1][len(b.Cols[1])-1])) + unsafe.Sizeof(datum.Datum{})
	if pointsInto(reflect.ValueOf(src), lo, hi, map[uintptr]bool{}) {
		t.Fatal("the split reader still aliases the caller's batch after NextBatch")
	}
}

// pointsInto reports whether anything reachable from v — through pointers,
// interfaces, struct fields, slices, arrays and maps, exported or not — is a
// pointer or slice into the memory [lo, hi).
func pointsInto(v reflect.Value, lo, hi uintptr, seen map[uintptr]bool) bool {
	inside := func(p uintptr) bool { return p >= lo && p < hi }
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return false
		}
		p := v.Pointer()
		if inside(p) {
			return true
		}
		if seen[p] {
			return false
		}
		seen[p] = true
		return pointsInto(v.Elem(), lo, hi, seen)
	case reflect.Interface:
		return !v.IsNil() && pointsInto(v.Elem(), lo, hi, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if pointsInto(v.Field(i), lo, hi, seen) {
				return true
			}
		}
	case reflect.Slice:
		if v.Cap() == 0 {
			return false
		}
		p := v.Pointer()
		if inside(p) {
			return true
		}
		if seen[p] {
			return false
		}
		seen[p] = true
		if k := v.Type().Elem().Kind(); k <= reflect.Complex128 || k == reflect.String {
			return false // elements hold no pointer of interest
		}
		for i := 0; i < v.Len(); i++ {
			if pointsInto(v.Index(i), lo, hi, seen) {
				return true
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if pointsInto(v.Index(i), lo, hi, seen) {
				return true
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if pointsInto(it.Key(), lo, hi, seen) || pointsInto(it.Value(), lo, hi, seen) {
				return true
			}
		}
	}
	return false
}
