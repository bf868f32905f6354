package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/pathkey"
	"repro/internal/trace"
)

func synthCounts() (map[pathkey.Key][]int, []pathkey.Key) {
	// 40 days, three behaviour classes:
	//   daily paths   — MPJP every day;
	//   weekly paths  — MPJP every 7th day (needs sequence awareness);
	//   random paths  — occasionally accessed once, never MPJP.
	days := 40
	counts := make(map[pathkey.Key][]int)
	mk := func(name string) pathkey.Key {
		return pathkey.Key{DB: "db", Table: "t", Column: "c", Path: "$." + name}
	}
	for i := 0; i < 6; i++ {
		k := mk("daily" + string(rune('a'+i)))
		c := make([]int, days)
		for d := range c {
			c[d] = 3 + (d+i)%2
		}
		counts[k] = c
	}
	for i := 0; i < 6; i++ {
		k := mk("weekly" + string(rune('a'+i)))
		c := make([]int, days)
		for d := range c {
			if (d+i)%7 == 0 {
				c[d] = 4
			}
		}
		counts[k] = c
	}
	for i := 0; i < 6; i++ {
		k := mk("rare" + string(rune('a'+i)))
		c := make([]int, days)
		for d := range c {
			if (d*7+i*3)%11 == 0 {
				c[d] = 1
			}
		}
		counts[k] = c
	}
	return counts, trace.SortedKeys(counts)
}

func TestBuildSamplesShapesAndLabels(t *testing.T) {
	counts, keys := synthCounts()
	window := 7
	samples := BuildSamples(counts, keys, window, window, 40, 0)
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for _, s := range samples {
		if len(s.Steps) != window || len(s.Labels) != window {
			t.Fatalf("sample shape = %d steps, %d labels", len(s.Steps), len(s.Labels))
		}
		for _, step := range s.Steps {
			if len(step) != StepDim {
				t.Fatalf("step dim = %d, want %d", len(step), StepDim)
			}
		}
		if len(s.Flat) != FlatDim {
			t.Fatalf("flat dim = %d, want %d", len(s.Flat), FlatDim)
		}
		// Label semantics: Labels[i] reflects count at day (target-window+i+1).
		series := counts[s.Key]
		_ = series
	}
	// A daily path's target is always 1.
	for _, s := range samples {
		if s.Key.Path == "$.dailya" && s.Target() != 1 {
			t.Errorf("daily path target = %d", s.Target())
		}
		if s.Key.Path == "$.rarea" && s.Target() != 0 {
			t.Errorf("rare path target = %d (counts max 1 < MPJP threshold)", s.Target())
		}
	}
}

func TestSplitSamplesProportions(t *testing.T) {
	counts, keys := synthCounts()
	samples := BuildSamples(counts, keys, 7, 7, 40, 0)
	train, val, test := SplitSamples(samples)
	if len(train)+len(val)+len(test) != len(samples) {
		t.Fatal("split lost samples")
	}
	n := float64(len(samples))
	if f := float64(len(train)) / n; f < 0.6 || f > 0.8 {
		t.Errorf("train fraction = %.2f", f)
	}
	if f := float64(len(test)) / n; f < 0.05 || f > 0.2 {
		t.Errorf("test fraction = %.2f", f)
	}
	// Deterministic.
	train2, _, _ := SplitSamples(samples)
	if len(train2) != len(train) {
		t.Error("split not deterministic")
	}
}

func TestSequenceModelsBeatBaselinesOnWeeklyPattern(t *testing.T) {
	counts, keys := synthCounts()
	window := 7
	samples := BuildSamples(counts, keys, window, window, 40, 0)
	train, _, test := SplitSamples(samples)
	if len(test) == 0 {
		t.Fatal("no test samples")
	}

	cfg := LSTMConfig{Hidden: 16, Epochs: 25, LR: 0.02, Seed: 1, Batch: 16}
	crf := NewLSTMCRF(cfg)
	crf.Train(train)
	crfScores := EvaluatePredictor(crf, test)

	lstm := NewUniLSTM(cfg)
	lstm.Train(train)
	lstmScores := EvaluatePredictor(lstm, test)

	lr := NewLRPredictor()
	lr.Train(train)
	lrScores := EvaluatePredictor(lr, test)

	t.Logf("LSTM+CRF F1=%.3f  LSTM F1=%.3f  LR F1=%.3f", crfScores.F1, lstmScores.F1, lrScores.F1)

	// The weekly pattern is invisible to order-free features, so sequence
	// models must clearly beat LR (the paper's Table III point).
	if crfScores.F1 <= lrScores.F1 {
		t.Errorf("LSTM+CRF F1 %.3f <= LR F1 %.3f", crfScores.F1, lrScores.F1)
	}
	if crfScores.F1 < 0.8 {
		t.Errorf("LSTM+CRF F1 = %.3f, want strong fit on synthetic patterns", crfScores.F1)
	}
}

func TestPredictorNames(t *testing.T) {
	names := map[string]Predictor{
		"LR":            NewLRPredictor(),
		"SVM":           NewSVMPredictor(),
		"MLPClassifier": NewMLPPredictor(),
		"LSTM":          NewUniLSTM(DefaultLSTMConfig()),
		"LSTM+CRF":      NewLSTMCRF(DefaultLSTMConfig()),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
	}
}

func TestUntrainedModelsPredictZero(t *testing.T) {
	counts, keys := synthCounts()
	samples := BuildSamples(counts, keys, 7, 7, 9, 0)
	for _, p := range []Predictor{NewUniLSTM(DefaultLSTMConfig()), NewLSTMCRF(DefaultLSTMConfig())} {
		if got := p.Predict(samples[0]); got != 0 {
			t.Errorf("%s untrained Predict = %d", p.Name(), got)
		}
	}
}

func TestDecodeSequenceLength(t *testing.T) {
	counts, keys := synthCounts()
	samples := BuildSamples(counts, keys, 7, 7, 40, 0)
	train, _, _ := SplitSamples(samples)
	m := NewLSTMCRF(LSTMConfig{Hidden: 8, Epochs: 3, LR: 0.02, Seed: 2, Batch: 16})
	m.Train(train)
	seq := m.DecodeSequence(samples[0])
	if len(seq) != 7 {
		t.Errorf("decoded length = %d", len(seq))
	}
	for _, l := range seq {
		if l != 0 && l != 1 {
			t.Errorf("label out of range: %d", l)
		}
	}
}

func TestLSTMCRFWeightPersistence(t *testing.T) {
	counts, keys := synthCounts()
	samples := BuildSamples(counts, keys, 7, 7, 40, 0)
	train, _, test := SplitSamples(samples)
	cfg := LSTMConfig{Hidden: 10, Epochs: 8, LR: 0.02, Seed: 3, Batch: 16}

	m := NewLSTMCRF(cfg)
	if _, err := m.SaveWeights(); err == nil {
		t.Error("SaveWeights on untrained model should error")
	}
	m.Train(train)
	blob, err := m.SaveWeights()
	if err != nil {
		t.Fatal(err)
	}

	restored := NewLSTMCRF(cfg)
	if err := restored.LoadWeights(blob); err != nil {
		t.Fatal(err)
	}
	for i, s := range test {
		if m.Predict(s) != restored.Predict(s) {
			t.Fatalf("sample %d: restored model diverges", i)
		}
	}
	// Wrong-config load fails loudly.
	other := NewLSTMCRF(LSTMConfig{Hidden: 6, Epochs: 1, LR: 0.02, Seed: 1, Batch: 4})
	if err := other.LoadWeights(blob); err == nil {
		t.Error("shape-mismatched load should error")
	}
	// Corrupt blob fails loudly.
	if err := restored.LoadWeights(blob[:len(blob)-5]); err == nil {
		t.Error("truncated blob should error")
	}
	if err := restored.LoadWeights([]byte("garbage!")); err == nil {
		t.Error("garbage blob should error")
	}
}

// TestTrainedWeightsAreTheParents: training reuses its LSTM tapes across
// steps and samples, and Predict takes them from a pool, without touching
// the arithmetic, so a fixed seed still trains bit-identical weights. The
// hashes are of SaveWeights after Train, then of the Viterbi decodes and
// the Uni-LSTM's predictions over the test samples, at commit 22d516e, the
// last to allocate a tape per sample; one and two layers, so the stack's
// input gradients are covered too. They hold on amd64, where Go never fuses a
// multiply and an add (other architectures may, which moves the low bits).
func TestTrainedWeightsAreTheParents(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden hashes were taken on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	counts, keys := synthCounts()
	train, _, test := SplitSamples(BuildSamples(counts, keys, 7, 7, 40, 0))
	for layers, want := range map[int]string{
		1: "0ddc9c6cb7c3d2507d6075c4f4eaac9a07580a2d843d669ffa1985f6e6451b0b",
		2: "41daa8ba68b3b4ca6cd8d95758cf0593a50141c95f69cbf95d90b32037caddd8",
	} {
		cfg := LSTMConfig{Hidden: 8, Layers: layers, Epochs: 4, LR: 0.02, Seed: 5, Batch: 8}
		m, uni := NewLSTMCRF(cfg), NewUniLSTM(cfg)
		m.Train(train)
		uni.Train(train)
		blob, err := m.SaveWeights()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		h.Write(blob)
		for _, s := range test {
			fmt.Fprint(h, m.DecodeSequence(s), uni.Predict(s))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%d layers: weights and decodes hash to %s, want %s", layers, got, want)
		}
	}
}
