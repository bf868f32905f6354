package nn

import "math"

// LSTM is a single-layer LSTM with full backpropagation through time. Gate
// weights are packed into one input matrix Wx (4H×D), one recurrent matrix
// Wh (4H×H), and one bias B (4H×1), with gate order [input, forget, cell,
// output]. The forget-gate bias is initialized to 1, the standard trick for
// remembering long histories.
type LSTM struct {
	InputDim  int
	HiddenDim int
	Wx        *Mat
	Wh        *Mat
	B         *Mat
}

// NewLSTM builds an LSTM with Xavier-initialized weights.
func NewLSTM(inputDim, hiddenDim int, rng *randSource) *LSTM {
	l := &LSTM{
		InputDim:  inputDim,
		HiddenDim: hiddenDim,
		Wx:        NewMatRand(4*hiddenDim, inputDim, rng.r),
		Wh:        NewMatRand(4*hiddenDim, hiddenDim, rng.r),
		B:         NewMat(4*hiddenDim, 1),
	}
	for i := 0; i < hiddenDim; i++ {
		l.B.Data[hiddenDim+i] = 1 // forget gate bias
	}
	return l
}

// Params returns the trainable matrices in a stable order.
func (l *LSTM) Params() []*Mat { return []*Mat{l.Wx, l.Wh, l.B} }

// LSTMGrads holds gradients aligned with Params().
type LSTMGrads struct {
	Wx, Wh, B *Mat
}

// NewLSTMGrads allocates zero gradients for l.
func NewLSTMGrads(l *LSTM) *LSTMGrads {
	return &LSTMGrads{
		Wx: NewMat(4*l.HiddenDim, l.InputDim),
		Wh: NewMat(4*l.HiddenDim, l.HiddenDim),
		B:  NewMat(4*l.HiddenDim, 1),
	}
}

// List returns the gradients aligned with LSTM.Params().
func (g *LSTMGrads) List() []*Mat { return []*Mat{g.Wx, g.Wh, g.B} }

// Zero clears the gradients.
func (g *LSTMGrads) Zero() { g.Wx.Zero(); g.Wh.Zero(); g.B.Zero() }

// LSTMTape records the forward activations of one sequence so Backward can
// replay them. A tape is reused: Forward overwrites what the previous
// Forward on it recorded, Backward keeps its scratch here too, and both
// allocate only while the tape grows to a longer sequence or a wider layer
// than it has seen.
type LSTMTape struct {
	inputs  [][]float64
	gates   [][]float64 // per step: i,f,g,o after nonlinearity (4H)
	cells   [][]float64 // c_t
	hiddens [][]float64 // h_t
	tanhC   [][]float64 // tanh(c_t)
	// steps backs the four per-step vectors above, 7H floats a step.
	steps []float64
	// work is Forward's and Backward's scratch (see scratch).
	work []float64
	// dInputs is Backward's ∂loss/∂x_t when a stack asks for it, backed by
	// dx, InputDim floats a step.
	dInputs [][]float64
	dx      []float64
}

// Hidden returns the hidden state at step t.
func (t *LSTMTape) Hidden(step int) []float64 { return t.hiddens[step] }

// Len returns the sequence length.
func (t *LSTMTape) Len() int { return len(t.hiddens) }

// floats returns buf resized to n, reusing its array when it is big enough;
// the contents are whatever the array held.
func floats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// vectors returns buf resized to n vectors.
func vectors(buf [][]float64, n int) [][]float64 {
	if cap(buf) < n {
		return make([][]float64, n)
	}
	return buf[:n]
}

// lstmScratch names the vectors a forward or backward pass works in.
type lstmScratch struct {
	zero      []float64 // H zeros: h and c before the first step
	pre, tmp  []float64 // 4H: gate pre-activations
	dh, dc    []float64 // H: this step's gradients
	dhNext    []float64 // H: ∂loss/∂h_{t-1} carried to the step before
	dcNext    []float64 // H: ∂loss/∂c_{t-1}
	dPre      []float64 // 4H: gradients on the pre-activations
	dhFromRec []float64 // H: the recurrent part of dhNext
}

// scratch carves the tape's work buffer into the pass's vectors for hidden
// size h, with zero, dhNext and dcNext zeroed.
func (t *LSTMTape) scratch(h int) lstmScratch {
	t.work = floats(t.work, 18*h)
	w := t.work
	take := func(n int) []float64 {
		v := w[:n:n]
		w = w[n:]
		return v
	}
	s := lstmScratch{
		zero: take(h), pre: take(4 * h), tmp: take(4 * h),
		dh: take(h), dc: take(h), dhNext: take(h), dcNext: take(h),
		dPre: take(4 * h), dhFromRec: take(h),
	}
	clear(s.zero)
	clear(s.dhNext)
	clear(s.dcNext)
	return s
}

// Forward runs the LSTM over a sequence of input vectors, records the
// activations in tape and returns it; a nil tape is a new one. Initial h and
// c are zero. The tape keeps a reference to inputs.
func (l *LSTM) Forward(tape *LSTMTape, inputs [][]float64) *LSTMTape {
	if tape == nil {
		tape = new(LSTMTape)
	}
	H, T := l.HiddenDim, len(inputs)
	tape.inputs = inputs
	tape.steps = floats(tape.steps, 7*H*T)
	tape.gates, tape.cells = vectors(tape.gates, T), vectors(tape.cells, T)
	tape.hiddens, tape.tanhC = vectors(tape.hiddens, T), vectors(tape.tanhC, T)
	sc := tape.scratch(H)
	hPrev, cPrev := sc.zero, sc.zero
	pre, tmp := sc.pre, sc.tmp
	for t, x := range inputs {
		l.Wx.MulVec(x, pre)
		l.Wh.MulVec(hPrev, tmp)
		AddVec(pre, tmp)
		for i := 0; i < 4*H; i++ {
			pre[i] += l.B.Data[i]
		}
		step := tape.steps[7*H*t : 7*H*(t+1) : 7*H*(t+1)]
		gates, c, h, tc := step[:4*H:4*H], step[4*H:5*H:5*H], step[5*H:6*H:6*H], step[6*H:]
		for j := 0; j < H; j++ {
			iG := Sigmoid(pre[j])
			fG := Sigmoid(pre[H+j])
			gG := math.Tanh(pre[2*H+j])
			oG := Sigmoid(pre[3*H+j])
			gates[j], gates[H+j], gates[2*H+j], gates[3*H+j] = iG, fG, gG, oG
			c[j] = fG*cPrev[j] + iG*gG
			tc[j] = math.Tanh(c[j])
			h[j] = oG * tc[j]
		}
		tape.gates[t], tape.cells[t], tape.hiddens[t], tape.tanhC[t] = gates, c, h, tc
		hPrev, cPrev = h, c
	}
	return tape
}

// Backward backpropagates through time. dHidden[t] is ∂loss/∂h_t from the
// layers above (may contain nils for steps without direct loss). Gradients
// accumulate into g.
func (l *LSTM) Backward(tape *LSTMTape, dHidden [][]float64, g *LSTMGrads) {
	l.backward(tape, dHidden, g, false)
}

// backward is Backward that, when inputGrads is set, also returns ∂loss/∂x_t
// for every step — what a stack needs to chain its layers. The returned
// vectors live in the tape until its next Backward.
func (l *LSTM) backward(tape *LSTMTape, dHidden [][]float64, g *LSTMGrads, inputGrads bool) [][]float64 {
	H := l.HiddenDim
	T := tape.Len()
	sc := tape.scratch(H)
	dh, dc, dhNext, dcNext, dPre, dhFromRec := sc.dh, sc.dc, sc.dhNext, sc.dcNext, sc.dPre, sc.dhFromRec
	if inputGrads {
		tape.dx = floats(tape.dx, T*l.InputDim)
		tape.dInputs = vectors(tape.dInputs, T)
	}

	for t := T - 1; t >= 0; t-- {
		copy(dh, dhNext)
		if t < len(dHidden) && dHidden[t] != nil {
			AddVec(dh, dHidden[t])
		}
		gates := tape.gates[t]
		tc := tape.tanhC[t]
		cPrev, hPrev := sc.zero, sc.zero
		if t > 0 {
			cPrev, hPrev = tape.cells[t-1], tape.hiddens[t-1]
		}
		copy(dc, dcNext)
		for j := 0; j < H; j++ {
			iG, fG, gG, oG := gates[j], gates[H+j], gates[2*H+j], gates[3*H+j]
			// h = o * tanh(c)
			dOut := dh[j] * tc[j]
			dc[j] += dh[j] * oG * (1 - tc[j]*tc[j])
			// c = f*cPrev + i*g
			dIn := dc[j] * gG
			dF := dc[j] * cPrev[j]
			dG := dc[j] * iG
			dcNext[j] = dc[j] * fG
			// through the nonlinearities
			dPre[j] = dIn * iG * (1 - iG)
			dPre[H+j] = dF * fG * (1 - fG)
			dPre[2*H+j] = dG * (1 - gG*gG)
			dPre[3*H+j] = dOut * oG * (1 - oG)
		}
		g.Wx.AddOuter(dPre, tape.inputs[t], 1)
		g.Wh.AddOuter(dPre, hPrev, 1)
		for i := 0; i < 4*H; i++ {
			g.B.Data[i] += dPre[i]
		}
		if inputGrads {
			dx := tape.dx[t*l.InputDim : (t+1)*l.InputDim]
			l.Wx.MulVecT(dPre, dx)
			tape.dInputs[t] = dx
		}
		l.Wh.MulVecT(dPre, dhFromRec)
		copy(dhNext, dhFromRec)
	}
	if !inputGrads {
		return nil
	}
	return tape.dInputs
}
