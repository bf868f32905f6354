package core

import (
	"fmt"
	"sync"

	"repro/internal/mlbase"
	"repro/internal/nn"
)

// Predictor predicts whether a JSONPath will be an MPJP (parsed at least
// twice) on the next day, from its recent access history (paper §IV-A).
type Predictor interface {
	// Name identifies the model in experiment output (Table III/IV).
	Name() string
	// Train fits the model on labelled samples.
	Train(samples []*Sample)
	// Predict returns the next-day MPJP label for one sample.
	Predict(s *Sample) int
}

// EvaluatePredictor scores a predictor on a test set (precision / recall /
// F1 of the positive MPJP class).
func EvaluatePredictor(p Predictor, test []*Sample) mlbase.Scores {
	gold := make([]int, len(test))
	pred := make([]int, len(test))
	for i, s := range test {
		gold[i] = s.Target()
		pred[i] = p.Predict(s)
	}
	return mlbase.Evaluate(gold, pred)
}

// ---- classical baselines (flattened, order-free features) ----

// flatModel adapts an mlbase classifier to the Predictor interface using
// the non-sequential feature vector, reproducing Table III's setup where
// LR/SVM/MLP cannot see the date sequence.
type flatModel struct {
	clf   mlbase.Classifier
	means []float64
	stds  []float64
}

// NewLRPredictor returns the logistic-regression baseline.
func NewLRPredictor() Predictor { return &flatModel{clf: mlbase.NewLogisticRegression()} }

// NewSVMPredictor returns the linear-SVM baseline.
func NewSVMPredictor() Predictor { return &flatModel{clf: mlbase.NewLinearSVM()} }

// NewMLPPredictor returns the MLP baseline.
func NewMLPPredictor() Predictor { return &flatModel{clf: mlbase.NewMLP()} }

func (m *flatModel) Name() string { return m.clf.Name() }

func (m *flatModel) Train(samples []*Sample) {
	X := make([][]float64, len(samples))
	y := make([]int, len(samples))
	for i, s := range samples {
		X[i] = append([]float64{}, s.Flat...)
		y[i] = s.Target()
	}
	m.means, m.stds = mlbase.Normalize(X)
	m.clf.Fit(X, y)
}

func (m *flatModel) Predict(s *Sample) int {
	x := append([]float64{}, s.Flat...)
	mlbase.ApplyNorm(x, m.means, m.stds)
	return m.clf.Predict(x)
}

// ---- Uni-LSTM (sequence model, per-step softmax) ----

// tapes holds the forward tapes Predict and DecodeSequence record into, so
// a cycle's predictions reuse a few tapes instead of allocating one per
// sample and step; concurrent calls each take their own.
var tapes = sync.Pool{New: func() any { return new(nn.StackTape) }}

// LSTMConfig sizes the sequence models.
type LSTMConfig struct {
	Hidden int
	// Layers stacks LSTMs (the paper's configuration uses numLayers=2);
	// 0 or 1 means a single layer.
	Layers int
	Epochs int
	LR     float64
	Seed   int64
	Batch  int
}

// DefaultLSTMConfig returns sizes tuned for the scaled-down traces. The
// paper's production configuration stacks two LSTM layers (numLayers=2,
// set Layers: 2); at this reproduction's data scale a single layer trains
// reliably on small histories, so it is the default.
func DefaultLSTMConfig() LSTMConfig {
	return LSTMConfig{Hidden: 24, Layers: 1, Epochs: 30, LR: 0.01, Seed: 1, Batch: 16}
}

func (c LSTMConfig) layers() int {
	if c.Layers < 1 {
		return 1
	}
	return c.Layers
}

// UniLSTM is the paper's Uni-LSTM baseline: an LSTM over the step features
// with an independent softmax per step; the last step's argmax is the
// next-day prediction.
type UniLSTM struct {
	cfg  LSTMConfig
	lstm *nn.LSTMStack
	head *nn.Dense
}

// NewUniLSTM builds the Uni-LSTM model.
func NewUniLSTM(cfg LSTMConfig) *UniLSTM { return &UniLSTM{cfg: cfg} }

// Name implements Predictor.
func (m *UniLSTM) Name() string { return "LSTM" }

// Train implements Predictor.
func (m *UniLSTM) Train(samples []*Sample) {
	if len(samples) == 0 {
		return
	}
	rng := nn.NewRand(m.cfg.Seed)
	m.lstm = nn.NewLSTMStack(m.cfg.layers(), StepDim, m.cfg.Hidden, rng)
	m.head = nn.NewDense(m.cfg.Hidden, 2, rng)
	params := append(m.lstm.Params(), m.head.Params()...)
	opt := nn.NewAdam(m.cfg.LR, params)

	var tape *nn.StackTape // one tape serves every sample
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		lg := nn.NewStackGrads(m.lstm)
		hg := nn.NewDenseGrads(m.head)
		inBatch := 0
		for _, s := range samples {
			tape = m.lstm.Forward(tape, s.Steps)
			dHidden := make([][]float64, len(s.Steps))
			for t := range s.Steps {
				_, dLogits := nn.CrossEntropyGrad(m.head.Forward(tape.Hidden(t)), s.Labels[t])
				dHidden[t] = m.head.Backward(tape.Hidden(t), dLogits, hg)
			}
			m.lstm.Backward(tape, dHidden, lg)
			inBatch++
			if inBatch >= m.cfg.Batch {
				m.step(opt, lg, hg)
				inBatch = 0
			}
		}
		if inBatch > 0 {
			m.step(opt, lg, hg)
		}
	}
}

func (m *UniLSTM) step(opt *nn.Adam, lg *nn.StackGrads, hg *nn.DenseGrads) {
	grads := append(lg.List(), hg.List()...)
	nn.ClipGrads(grads, 5)
	opt.Step(grads)
	lg.Zero()
	hg.Zero()
}

// Predict implements Predictor.
func (m *UniLSTM) Predict(s *Sample) int {
	if m.lstm == nil {
		return 0
	}
	tape := tapes.Get().(*nn.StackTape)
	defer tapes.Put(tape)
	m.lstm.Forward(tape, s.Steps)
	logits := m.head.Forward(tape.Hidden(tape.Len() - 1))
	return nn.Argmax(logits)
}

// ---- LSTM + CRF (the paper's model) ----

// LSTMCRF stacks a linear-chain CRF on the LSTM's per-step emissions, so
// the model learns MPJP/non-MPJP transition structure in addition to the
// sequence features; Viterbi decodes the label sequence and the final label
// is the next-day prediction (paper §IV-A).
type LSTMCRF struct {
	cfg  LSTMConfig
	lstm *nn.LSTMStack
	head *nn.Dense
	crf  *nn.CRF
}

// NewLSTMCRF builds the hybrid model.
func NewLSTMCRF(cfg LSTMConfig) *LSTMCRF { return &LSTMCRF{cfg: cfg} }

// Name implements Predictor.
func (m *LSTMCRF) Name() string { return "LSTM+CRF" }

// Train implements Predictor.
func (m *LSTMCRF) Train(samples []*Sample) {
	if len(samples) == 0 {
		return
	}
	rng := nn.NewRand(m.cfg.Seed)
	m.lstm = nn.NewLSTMStack(m.cfg.layers(), StepDim, m.cfg.Hidden, rng)
	m.head = nn.NewDense(m.cfg.Hidden, 2, rng)
	m.crf = nn.NewCRF(2, rng)
	params := append(append(m.lstm.Params(), m.head.Params()...), m.crf.Params()...)
	opt := nn.NewAdam(m.cfg.LR, params)

	var tape *nn.StackTape // one tape serves every sample
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		lg := nn.NewStackGrads(m.lstm)
		hg := nn.NewDenseGrads(m.head)
		cg := nn.NewCRFGrads(m.crf)
		inBatch := 0
		for _, s := range samples {
			tape = m.lstm.Forward(tape, s.Steps)
			unary := make([][]float64, len(s.Steps))
			for t := range s.Steps {
				unary[t] = m.head.Forward(tape.Hidden(t))
			}
			_, dUnary := m.crf.NLLGrad(unary, s.Labels, cg)
			dHidden := make([][]float64, len(s.Steps))
			for t := range s.Steps {
				dHidden[t] = m.head.Backward(tape.Hidden(t), dUnary[t], hg)
			}
			m.lstm.Backward(tape, dHidden, lg)
			inBatch++
			if inBatch >= m.cfg.Batch {
				m.step(opt, lg, hg, cg)
				inBatch = 0
			}
		}
		if inBatch > 0 {
			m.step(opt, lg, hg, cg)
		}
	}
}

func (m *LSTMCRF) step(opt *nn.Adam, lg *nn.StackGrads, hg *nn.DenseGrads, cg *nn.CRFGrads) {
	grads := append(append(lg.List(), hg.List()...), cg.List()...)
	nn.ClipGrads(grads, 5)
	opt.Step(grads)
	lg.Zero()
	hg.Zero()
	cg.Zero()
}

// Predict implements Predictor.
func (m *LSTMCRF) Predict(s *Sample) int {
	labels := m.DecodeSequence(s)
	if labels == nil {
		return 0
	}
	return labels[len(labels)-1]
}

// SaveWeights serializes the trained model's parameters; LoadWeights on a
// model constructed with the same LSTMConfig restores them, so the nightly
// cycle can resume on a restarted node without retraining.
func (m *LSTMCRF) SaveWeights() ([]byte, error) {
	if m.lstm == nil {
		return nil, fmt.Errorf("core: model not trained")
	}
	params := append(append(m.lstm.Params(), m.head.Params()...), m.crf.Params()...)
	return nn.EncodeMats(params), nil
}

// LoadWeights restores parameters saved by SaveWeights into a freshly
// constructed (same-config) model.
func (m *LSTMCRF) LoadWeights(data []byte) error {
	rng := nn.NewRand(m.cfg.Seed)
	lstm := nn.NewLSTMStack(m.cfg.layers(), StepDim, m.cfg.Hidden, rng)
	head := nn.NewDense(m.cfg.Hidden, 2, rng)
	crf := nn.NewCRF(2, rng)
	params := append(append(lstm.Params(), head.Params()...), crf.Params()...)
	if _, err := nn.DecodeMats(data, params); err != nil {
		return err
	}
	m.lstm, m.head, m.crf = lstm, head, crf
	return nil
}

// DecodeSequence returns the full Viterbi label sequence for a sample.
func (m *LSTMCRF) DecodeSequence(s *Sample) []int {
	if m.lstm == nil {
		return nil
	}
	tape := tapes.Get().(*nn.StackTape)
	defer tapes.Put(tape)
	m.lstm.Forward(tape, s.Steps)
	unary := make([][]float64, len(s.Steps))
	for t := range s.Steps {
		unary[t] = m.head.Forward(tape.Hidden(t))
	}
	return m.crf.Decode(unary)
}
