package mison

import (
	"fmt"
	"testing"

	"repro/internal/jsonpath"
)

func TestStatsAccounting(t *testing.T) {
	pr := NewProjector(jsonpath.MustCompile("$.a"), jsonpath.MustCompile("$.b"))
	doc := []byte(`{"a": 1, "b": 2, "c": 3}`)
	for i := 0; i < 10; i++ {
		pr.Project(doc)
	}
	st := pr.Stats()
	if st.Documents != 10 {
		t.Errorf("Documents = %d", st.Documents)
	}
	if st.FieldsProjected != 20 {
		t.Errorf("FieldsProjected = %d", st.FieldsProjected)
	}
	if st.Index.BytesIndexed != int64(10*len(doc)) {
		t.Errorf("BytesIndexed = %d", st.Index.BytesIndexed)
	}
	if st.Index.WordsScanned == 0 || st.Index.ColonsIndexed == 0 {
		t.Errorf("index stats empty: %+v", st.Index)
	}
	pr.ResetStats()
	if pr.Stats().Documents != 0 {
		t.Error("ResetStats did not zero")
	}
}

func TestSpeculationRatioObservable(t *testing.T) {
	// The Fig 15 narrative depends on observing speculation behaviour:
	// stable schemas hit, drifting schemas miss. Verify the counters expose
	// the ratio cleanly.
	pr := NewProjector(jsonpath.MustCompile("$.x"))
	stable := []byte(`{"pad": 0, "x": 1}`)
	for i := 0; i < 100; i++ {
		pr.Project(stable)
	}
	st := pr.Stats()
	hitRatio := float64(st.SpeculationHits) / float64(st.SpeculationHits+st.SpeculationMiss+1)
	if hitRatio < 0.9 {
		t.Errorf("stable-schema hit ratio = %.2f", hitRatio)
	}

	drift := NewProjector(jsonpath.MustCompile("$.x"))
	for i := 0; i < 100; i++ {
		doc := fmt.Sprintf(`{"p%d": 0, "p%d": 1, "x": 2}`, i%5, (i+3)%7)
		drift.Project([]byte(doc))
	}
	dst := drift.Stats()
	if dst.FallbackSearches == 0 {
		t.Error("drifting schema produced no fallback searches")
	}
}
