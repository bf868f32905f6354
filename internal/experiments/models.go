package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/trace"
)

// ModelRow is one line of Table III / Table IV.
type ModelRow struct {
	Model     string
	Window    int
	Precision float64
	Recall    float64
	F1        float64
}

// Table3Result compares LR, SVM, MLP, and LSTM+CRF on MPJP prediction.
type Table3Result struct {
	Rows         []ModelRow
	TrainSamples int
	TestSamples  int
}

// buildPredictionDataset turns a synthetic trace into predictor samples.
func buildPredictionDataset(cfg trace.Config, window int) (train, val, test []*core.Sample) {
	tr := trace.Generate(cfg)
	counts := tr.CountMatrix()
	keys := trace.SortedKeys(counts)
	samples := core.BuildSamples(counts, keys, window, window, tr.Days, tr.Start.Unix()/86400)
	return core.SplitSamples(samples)
}

// RunTable3 regenerates Table III: precision/recall/F1 of each model family
// on the same trace with a one-week window. The classical models see only
// order-free aggregate features (the paper's point: without the date
// sequence, recall collapses).
func RunTable3(cfg trace.Config, lstmCfg core.LSTMConfig) *Table3Result {
	const window = 7
	train, _, test := buildPredictionDataset(cfg, window)
	models := []core.Predictor{
		core.NewLRPredictor(),
		core.NewSVMPredictor(),
		core.NewMLPPredictor(),
		core.NewLSTMCRF(lstmCfg),
	}
	out := &Table3Result{TrainSamples: len(train), TestSamples: len(test)}
	for _, m := range models {
		m.Train(train)
		s := core.EvaluatePredictor(m, test)
		out.Rows = append(out.Rows, ModelRow{
			Model: m.Name(), Window: window,
			Precision: s.Precision, Recall: s.Recall, F1: s.F1,
		})
	}
	return out
}

// String renders Table III.
func (r *Table3Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table III: MPJP prediction, model comparison\n")
	sb.WriteString("  model          precision  recall  F1\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-14s %.3f      %.3f   %.3f\n", row.Model, row.Precision, row.Recall, row.F1)
	}
	fmt.Fprintf(&sb, "  (%d train / %d test samples)\n", r.TrainSamples, r.TestSamples)
	return sb.String()
}

// Table4Result compares LSTM+CRF with Uni-LSTM across window sizes.
type Table4Result struct {
	Rows []ModelRow
}

// RunTable4 regenerates Table IV: LSTM+CRF vs Uni-LSTM at 1-week, 2-week,
// and 1-month windows.
func RunTable4(cfg trace.Config, lstmCfg core.LSTMConfig) *Table4Result {
	out := &Table4Result{}
	for _, window := range []int{7, 14, 30} {
		train, _, test := buildPredictionDataset(cfg, window)
		for _, m := range []core.Predictor{core.NewLSTMCRF(lstmCfg), core.NewUniLSTM(lstmCfg)} {
			m.Train(train)
			s := core.EvaluatePredictor(m, test)
			out.Rows = append(out.Rows, ModelRow{
				Model: m.Name(), Window: window,
				Precision: s.Precision, Recall: s.Recall, F1: s.F1,
			})
		}
	}
	return out
}

// String renders Table IV.
func (r *Table4Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table IV: LSTM+CRF vs Uni-LSTM across history windows\n")
	sb.WriteString("  window    model      precision  recall  F1\n")
	for _, row := range r.Rows {
		win := fmt.Sprintf("%d days", row.Window)
		fmt.Fprintf(&sb, "  %-9s %-10s %.3f      %.3f   %.3f\n", win, row.Model, row.Precision, row.Recall, row.F1)
	}
	return sb.String()
}
