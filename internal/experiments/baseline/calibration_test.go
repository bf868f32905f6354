package baseline

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/jsonpath"
	"repro/internal/sqlengine"
)

// TestCostModelCalibrationShape validates the cost model's central
// assumption against the real substrates on this machine: tree parsing must
// be meaningfully slower per byte than structural-index projection, which
// in turn must be slower than a raw substring prefilter. The test asserts
// the ordering (which every experiment's conclusions rest on), not absolute
// rates (hardware varies); the measured rates are logged so the constants
// in cost.go can be re-calibrated when porting.
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

	var meter sqlengine.ParseMeter
	timePer := func(eval sqlengine.DocEvaluator, uniquePrefix bool) float64 {
		docs := make([]string, iters)
		for i := range docs {
			if uniquePrefix {
				// Defeat the per-document memo so every call does real work.
				docs[i] = `{"i":` + itoa(i) + `,` + doc[1:]
			} else {
				docs[i] = doc
			}
		}
		start := time.Now()
		for _, d := range docs {
			if _, ok := eval.Extract(d, call); !ok {
				t.Fatal("extraction failed")
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters*len(doc))
	}

	// The fastest of five interleaved rounds, so a test package scheduled
	// beside this one cannot slow one side only.
	jacksonNs, misonNs := math.Inf(1), math.Inf(1)
	for round := 0; round < 5; round++ {
		jacksonNs = math.Min(jacksonNs, timePer(JacksonBackend{}.NewDocEvaluator(&meter, nil), true))
		misonNs = math.Min(misonNs, timePer(MisonBackend{}.NewDocEvaluator(&meter, nil), true))
	}

	// Raw substring scan (the prefilter primitive).
	start := time.Now()
	hits := 0
	for i := 0; i < iters; i++ {
		if strings.Contains(doc, `"needle-value"`) {
			hits++
		}
	}
	prefilterNs := float64(time.Since(start).Nanoseconds()) / float64(iters*len(doc))
	if hits != iters {
		t.Fatal("prefilter needle missing")
	}

	t.Logf("measured ns/byte: tree=%.2f index=%.2f prefilter=%.3f (model: %.1f / %.1f / %.1f)",
		jacksonNs, misonNs, prefilterNs,
		sqlengine.DefaultCostModel().ParseNsPerByteTree,
		sqlengine.DefaultCostModel().ParseNsPerByteIndex,
		sqlengine.DefaultCostModel().PrefilterNsPerByte)

	if jacksonNs <= misonNs {
		t.Errorf("tree parse (%.2f ns/B) should cost more than index projection (%.2f ns/B)", jacksonNs, misonNs)
	}
	if misonNs <= prefilterNs {
		t.Errorf("index projection (%.2f ns/B) should cost more than raw prefilter (%.3f ns/B)", misonNs, prefilterNs)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [12]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
