package nn

// LSTMStack chains LSTM layers: layer i+1 consumes layer i's hidden
// sequence. The paper's predictor uses numLayers=2; a stack of one layer
// degenerates to a plain LSTM.
type LSTMStack struct {
	Layers []*LSTM
}

// NewLSTMStack builds numLayers LSTMs; the first maps inputDim→hiddenDim,
// the rest hiddenDim→hiddenDim.
func NewLSTMStack(numLayers, inputDim, hiddenDim int, rng *randSource) *LSTMStack {
	if numLayers < 1 {
		numLayers = 1
	}
	s := &LSTMStack{}
	dim := inputDim
	for i := 0; i < numLayers; i++ {
		s.Layers = append(s.Layers, NewLSTM(dim, hiddenDim, rng))
		dim = hiddenDim
	}
	return s
}

// Params returns all layers' trainable matrices in stable order.
func (s *LSTMStack) Params() []*Mat {
	var out []*Mat
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// StackGrads holds per-layer gradients.
type StackGrads struct {
	Layers []*LSTMGrads
}

// NewStackGrads allocates zero gradients for s.
func NewStackGrads(s *LSTMStack) *StackGrads {
	g := &StackGrads{}
	for _, l := range s.Layers {
		g.Layers = append(g.Layers, NewLSTMGrads(l))
	}
	return g
}

// List returns gradients aligned with LSTMStack.Params().
func (g *StackGrads) List() []*Mat {
	var out []*Mat
	for _, lg := range g.Layers {
		out = append(out, lg.List()...)
	}
	return out
}

// Zero clears all gradients.
func (g *StackGrads) Zero() {
	for _, lg := range g.Layers {
		lg.Zero()
	}
}

// StackTape records every layer's forward activations. Like an LSTMTape,
// it is reused by the next Forward and Backward on it.
type StackTape struct {
	Tapes []*LSTMTape
}

// Hidden returns the TOP layer's hidden state at step t — the sequence the
// head consumes.
func (t *StackTape) Hidden(step int) []float64 {
	return t.Tapes[len(t.Tapes)-1].Hidden(step)
}

// Len returns the sequence length.
func (t *StackTape) Len() int { return t.Tapes[0].Len() }

// Forward runs the stack over the input sequence, records every layer's
// activations in tape and returns it; a nil tape is a new one.
func (s *LSTMStack) Forward(tape *StackTape, inputs [][]float64) *StackTape {
	if tape == nil {
		tape = &StackTape{}
	}
	for len(tape.Tapes) < len(s.Layers) {
		tape.Tapes = append(tape.Tapes, new(LSTMTape))
	}
	tape.Tapes = tape.Tapes[:len(s.Layers)]
	cur := inputs
	for i, l := range s.Layers {
		cur = l.Forward(tape.Tapes[i], cur).hiddens
	}
	return tape
}

// Backward backpropagates dHidden (gradients on the TOP layer's hidden
// states) down through every layer, accumulating into g.
func (s *LSTMStack) Backward(tape *StackTape, dHidden [][]float64, g *StackGrads) {
	d := dHidden
	for i := len(s.Layers) - 1; i >= 0; i-- {
		// Every layer above the first also hands back the gradient on its
		// input sequence (= the layer-below's hidden sequence).
		d = s.Layers[i].backward(tape.Tapes[i], d, g.Layers[i], i > 0)
	}
}
