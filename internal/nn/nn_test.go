package nn

import (
	"math"
	"testing"
)

const gradEps = 1e-5

// numericalGrad perturbs one parameter entry and measures the loss delta.
func numericalGrad(param *Mat, idx int, loss func() float64) float64 {
	orig := param.Data[idx]
	param.Data[idx] = orig + gradEps
	up := loss()
	param.Data[idx] = orig - gradEps
	down := loss()
	param.Data[idx] = orig
	return (up - down) / (2 * gradEps)
}

func approxEqual(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*(1+scale)
}

func TestMatOps(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(0, 2, 3)
	m.Set(1, 0, 4)
	m.Set(1, 1, 5)
	m.Set(1, 2, 6)
	out := make([]float64, 2)
	m.MulVec([]float64{1, 1, 1}, out)
	if out[0] != 6 || out[1] != 15 {
		t.Errorf("MulVec = %v", out)
	}
	outT := make([]float64, 3)
	m.MulVecT([]float64{1, 1}, outT)
	if outT[0] != 5 || outT[1] != 7 || outT[2] != 9 {
		t.Errorf("MulVecT = %v", outT)
	}
	m2 := m.Clone()
	m2.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone aliases data")
	}
	m.AddOuter([]float64{1, 0}, []float64{10, 0, 0}, 0.5)
	if m.At(0, 0) != 6 {
		t.Errorf("AddOuter: %v", m.At(0, 0))
	}
}

func TestSoftmaxAndLogSumExp(t *testing.T) {
	out := make([]float64, 3)
	Softmax([]float64{1000, 1000, 1000}, out)
	for _, p := range out {
		if !approxEqual(p, 1.0/3, 1e-9) {
			t.Errorf("softmax overflow: %v", out)
		}
	}
	if !approxEqual(LogSumExp([]float64{0, 0}), math.Log(2), 1e-12) {
		t.Error("LogSumExp wrong")
	}
	if !math.IsInf(LogSumExp([]float64{math.Inf(-1), math.Inf(-1)}), -1) {
		t.Error("LogSumExp of -inf should be -inf")
	}
}

func TestCrossEntropyGrad(t *testing.T) {
	logits := []float64{2, 1, 0.5}
	loss, grad := CrossEntropyGrad(append([]float64{}, logits...), 0)
	if loss <= 0 {
		t.Errorf("loss = %v", loss)
	}
	// Gradient sums to zero and the label entry is negative.
	sum := 0.0
	for _, g := range grad {
		sum += g
	}
	if !approxEqual(sum, 0, 1e-9) || grad[0] >= 0 {
		t.Errorf("grad = %v", grad)
	}
}

func TestDenseGradientCheck(t *testing.T) {
	rng := NewRand(1)
	d := NewDense(4, 3, rng)
	x := []float64{0.5, -1, 2, 0.3}
	label := 1

	loss := func() float64 {
		l, _ := CrossEntropyGrad(d.Forward(x), label)
		return l
	}
	g := NewDenseGrads(d)
	_, dLogits := CrossEntropyGrad(d.Forward(x), label)
	d.Backward(x, dLogits, g)

	params := d.Params()
	grads := g.List()
	for pi, p := range params {
		for idx := 0; idx < len(p.Data); idx++ {
			want := numericalGrad(p, idx, loss)
			got := grads[pi].Data[idx]
			if !approxEqual(got, want, 1e-4) {
				t.Fatalf("param %d idx %d: analytic %v vs numeric %v", pi, idx, got, want)
			}
		}
	}
}

func TestLSTMGradientCheck(t *testing.T) {
	rng := NewRand(7)
	const D, H, T = 3, 4, 5
	l := NewLSTM(D, H, rng)
	head := NewDense(H, 2, rng)
	inputs := make([][]float64, T)
	labels := make([]int, T)
	for t2 := 0; t2 < T; t2++ {
		inputs[t2] = []float64{rng.r.NormFloat64(), rng.r.NormFloat64(), rng.r.NormFloat64()}
		labels[t2] = rng.r.Intn(2)
	}

	loss := func() float64 {
		tape := l.Forward(nil, inputs)
		total := 0.0
		for t2 := 0; t2 < T; t2++ {
			lo, _ := CrossEntropyGrad(head.Forward(tape.Hidden(t2)), labels[t2])
			total += lo
		}
		return total
	}

	lg := NewLSTMGrads(l)
	hg := NewDenseGrads(head)
	tape := l.Forward(nil, inputs)
	dHidden := make([][]float64, T)
	for t2 := 0; t2 < T; t2++ {
		_, dLogits := CrossEntropyGrad(head.Forward(tape.Hidden(t2)), labels[t2])
		dHidden[t2] = head.Backward(tape.Hidden(t2), dLogits, hg)
	}
	l.Backward(tape, dHidden, lg)

	params := append(l.Params(), head.Params()...)
	grads := append(lg.List(), hg.List()...)
	for pi, p := range params {
		for idx := 0; idx < len(p.Data); idx += 3 { // sample every 3rd entry
			want := numericalGrad(p, idx, loss)
			got := grads[pi].Data[idx]
			if !approxEqual(got, want, 1e-3) {
				t.Fatalf("param %d idx %d: analytic %v vs numeric %v", pi, idx, got, want)
			}
		}
	}
}

func TestCRFGradientCheck(t *testing.T) {
	rng := NewRand(11)
	const K, T = 3, 6
	c := NewCRF(K, rng)
	unary := make([][]float64, T)
	labels := make([]int, T)
	for t2 := 0; t2 < T; t2++ {
		unary[t2] = []float64{rng.r.NormFloat64(), rng.r.NormFloat64(), rng.r.NormFloat64()}
		labels[t2] = rng.r.Intn(K)
	}

	loss := func() float64 {
		g := NewCRFGrads(c)
		l, _ := c.NLLGrad(unary, labels, g)
		return l
	}

	g := NewCRFGrads(c)
	_, dUnary := c.NLLGrad(unary, labels, g)

	// Parameter gradients.
	params := c.Params()
	grads := g.List()
	for pi, p := range params {
		for idx := 0; idx < len(p.Data); idx++ {
			want := numericalGrad(p, idx, loss)
			got := grads[pi].Data[idx]
			if !approxEqual(got, want, 1e-4) {
				t.Fatalf("CRF param %d idx %d: analytic %v vs numeric %v", pi, idx, got, want)
			}
		}
	}
	// Unary gradients: perturb unary scores numerically.
	for t2 := 0; t2 < T; t2++ {
		for k := 0; k < K; k++ {
			orig := unary[t2][k]
			unary[t2][k] = orig + gradEps
			up := loss()
			unary[t2][k] = orig - gradEps
			down := loss()
			unary[t2][k] = orig
			want := (up - down) / (2 * gradEps)
			if !approxEqual(dUnary[t2][k], want, 1e-4) {
				t.Fatalf("dUnary[%d][%d]: analytic %v vs numeric %v", t2, k, dUnary[t2][k], want)
			}
		}
	}
}

func TestCRFNLLNonNegativeAndDecreasesUnderTraining(t *testing.T) {
	rng := NewRand(3)
	const K, T = 2, 8
	c := NewCRF(K, rng)
	// A strongly patterned sequence: labels alternate.
	unary := make([][]float64, T)
	labels := make([]int, T)
	for i := 0; i < T; i++ {
		unary[i] = []float64{0.1, -0.1}
		labels[i] = i % 2
	}
	opt := NewAdam(0.1, c.Params())
	var first, last float64
	for epoch := 0; epoch < 60; epoch++ {
		g := NewCRFGrads(c)
		loss, _ := c.NLLGrad(unary, labels, g)
		if loss < -1e-9 {
			t.Fatalf("NLL went negative: %v", loss)
		}
		if epoch == 0 {
			first = loss
		}
		last = loss
		opt.Step(g.List())
	}
	if last >= first {
		t.Errorf("training did not reduce NLL: first %v last %v", first, last)
	}
	if got := c.Decode(unary); len(got) != T {
		t.Fatalf("decode length = %d", len(got))
	}
}

func TestViterbiMatchesBruteForce(t *testing.T) {
	rng := NewRand(5)
	const K, T = 3, 5
	c := NewCRF(K, rng)
	for i := range c.Trans.Data {
		c.Trans.Data[i] = rng.r.NormFloat64()
	}
	for i := 0; i < K; i++ {
		c.Start.Data[i] = rng.r.NormFloat64()
		c.End.Data[i] = rng.r.NormFloat64()
	}
	unary := make([][]float64, T)
	for t2 := range unary {
		unary[t2] = []float64{rng.r.NormFloat64(), rng.r.NormFloat64(), rng.r.NormFloat64()}
	}
	got := c.Decode(unary)

	// Brute force over all K^T sequences.
	best := math.Inf(-1)
	var bestSeq []int
	seq := make([]int, T)
	var enumerate func(pos int)
	enumerate = func(pos int) {
		if pos == T {
			s := c.score(unary, seq)
			if s > best {
				best = s
				bestSeq = append([]int{}, seq...)
			}
			return
		}
		for k := 0; k < K; k++ {
			seq[pos] = k
			enumerate(pos + 1)
		}
	}
	enumerate(0)
	for i := range bestSeq {
		if got[i] != bestSeq[i] {
			t.Fatalf("Viterbi %v != brute force %v", got, bestSeq)
		}
	}
}

func TestForwardBackwardConsistency(t *testing.T) {
	// logZ from forward must equal logZ recomputed from backward side.
	rng := NewRand(9)
	const K, T = 3, 7
	c := NewCRF(K, rng)
	unary := make([][]float64, T)
	for i := range unary {
		unary[i] = []float64{rng.r.NormFloat64(), rng.r.NormFloat64(), rng.r.NormFloat64()}
	}
	_, logZ := c.forwardLog(unary)
	beta := c.backwardLog(unary)
	acc := make([]float64, K)
	for k := 0; k < K; k++ {
		acc[k] = c.Start.Data[k] + unary[0][k] + beta[0][k]
	}
	logZ2 := LogSumExp(acc)
	if !approxEqual(logZ, logZ2, 1e-9) {
		t.Errorf("forward logZ %v != backward logZ %v", logZ, logZ2)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (x-3)^2 via Adam on a 1x1 "matrix".
	p := NewMat(1, 1)
	opt := NewAdam(0.1, []*Mat{p})
	g := NewMat(1, 1)
	for i := 0; i < 500; i++ {
		g.Data[0] = 2 * (p.Data[0] - 3)
		opt.Step([]*Mat{g})
	}
	if math.Abs(p.Data[0]-3) > 0.01 {
		t.Errorf("Adam converged to %v, want 3", p.Data[0])
	}
}

func TestClipGrads(t *testing.T) {
	g := NewMat(1, 2)
	g.Data[0], g.Data[1] = 3, 4 // norm 5
	ClipGrads([]*Mat{g}, 1)
	norm := math.Hypot(g.Data[0], g.Data[1])
	if !approxEqual(norm, 1, 1e-9) {
		t.Errorf("clipped norm = %v", norm)
	}
	g2 := NewMat(1, 1)
	g2.Data[0] = 0.5
	ClipGrads([]*Mat{g2}, 1)
	if g2.Data[0] != 0.5 {
		t.Error("ClipGrads should not scale small gradients")
	}
}

func TestLSTMLearnsParityPattern(t *testing.T) {
	// Sequence task: label at step t = whether the count of 1-inputs so far
	// is even — requires the LSTM to carry state.
	rng := NewRand(42)
	const D, H, T = 1, 12, 8
	l := NewLSTM(D, H, rng)
	head := NewDense(H, 2, rng)
	params := append(l.Params(), head.Params()...)
	opt := NewAdam(0.02, params)

	makeSeq := func(seed int) ([][]float64, []int) {
		r := NewRand(int64(seed)).r
		inputs := make([][]float64, T)
		labels := make([]int, T)
		parity := 0
		for t2 := 0; t2 < T; t2++ {
			bit := r.Intn(2)
			inputs[t2] = []float64{float64(bit)}
			parity ^= bit
			labels[t2] = parity
		}
		return inputs, labels
	}

	for epoch := 0; epoch < 300; epoch++ {
		lg := NewLSTMGrads(l)
		hg := NewDenseGrads(head)
		for s := 0; s < 20; s++ {
			inputs, labels := makeSeq(s)
			tape := l.Forward(nil, inputs)
			dHidden := make([][]float64, T)
			for t2 := 0; t2 < T; t2++ {
				_, dLogits := CrossEntropyGrad(head.Forward(tape.Hidden(t2)), labels[t2])
				dHidden[t2] = head.Backward(tape.Hidden(t2), dLogits, hg)
			}
			l.Backward(tape, dHidden, lg)
		}
		grads := append(lg.List(), hg.List()...)
		ClipGrads(grads, 5)
		opt.Step(grads)
	}

	correct, total := 0, 0
	for s := 0; s < 20; s++ {
		inputs, labels := makeSeq(s)
		tape := l.Forward(nil, inputs)
		for t2 := 0; t2 < T; t2++ {
			logits := head.Forward(tape.Hidden(t2))
			if Argmax(logits) == labels[t2] {
				correct++
			}
			total++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.95 {
		t.Errorf("LSTM failed to learn parity: accuracy %.2f", acc)
	}
}

func TestLSTMStackGradientCheck(t *testing.T) {
	rng := NewRand(13)
	const D, H, T = 3, 4, 5
	stack := NewLSTMStack(2, D, H, rng)
	head := NewDense(H, 2, rng)
	inputs := make([][]float64, T)
	labels := make([]int, T)
	for i := 0; i < T; i++ {
		inputs[i] = []float64{rng.r.NormFloat64(), rng.r.NormFloat64(), rng.r.NormFloat64()}
		labels[i] = rng.r.Intn(2)
	}

	loss := func() float64 {
		tape := stack.Forward(nil, inputs)
		total := 0.0
		for i := 0; i < T; i++ {
			lo, _ := CrossEntropyGrad(head.Forward(tape.Hidden(i)), labels[i])
			total += lo
		}
		return total
	}

	sg := NewStackGrads(stack)
	hg := NewDenseGrads(head)
	tape := stack.Forward(nil, inputs)
	dHidden := make([][]float64, T)
	for i := 0; i < T; i++ {
		_, dLogits := CrossEntropyGrad(head.Forward(tape.Hidden(i)), labels[i])
		dHidden[i] = head.Backward(tape.Hidden(i), dLogits, hg)
	}
	stack.Backward(tape, dHidden, sg)

	params := append(stack.Params(), head.Params()...)
	grads := append(sg.List(), hg.List()...)
	if len(params) != len(grads) {
		t.Fatalf("params %d != grads %d", len(params), len(grads))
	}
	for pi, p := range params {
		for idx := 0; idx < len(p.Data); idx += 4 { // sample entries
			want := numericalGrad(p, idx, loss)
			got := grads[pi].Data[idx]
			if !approxEqual(got, want, 2e-3) {
				t.Fatalf("stack param %d idx %d: analytic %v vs numeric %v", pi, idx, got, want)
			}
		}
	}
}

func TestLSTMStackSingleLayerMatchesPlainLSTM(t *testing.T) {
	// A 1-layer stack must be numerically identical to a plain LSTM with
	// the same seed.
	const D, H, T = 2, 3, 4
	stack := NewLSTMStack(1, D, H, NewRand(5))
	plain := NewLSTM(D, H, NewRand(5))
	inputs := make([][]float64, T)
	r := NewRand(6).r
	for i := range inputs {
		inputs[i] = []float64{r.NormFloat64(), r.NormFloat64()}
	}
	st := stack.Forward(nil, inputs)
	pt := plain.Forward(nil, inputs)
	for i := 0; i < T; i++ {
		a, b := st.Hidden(i), pt.Hidden(i)
		for j := range a {
			if !approxEqual(a[j], b[j], 1e-12) {
				t.Fatalf("step %d dim %d: %v vs %v", i, j, a[j], b[j])
			}
		}
	}
}

func TestEncodeDecodeMats(t *testing.T) {
	rng := NewRand(1)
	mats := []*Mat{NewMatRand(3, 4, rng.r), NewMatRand(1, 7, rng.r)}
	blob := EncodeMats(mats)
	out, err := DecodeMats(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mats {
		for j := range mats[i].Data {
			if out[i].Data[j] != mats[i].Data[j] {
				t.Fatalf("mat %d idx %d mismatch", i, j)
			}
		}
	}
	// In-place decode with shape check.
	dst := []*Mat{NewMat(3, 4), NewMat(1, 7)}
	if _, err := DecodeMats(blob, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0].Data[5] != mats[0].Data[5] {
		t.Error("in-place decode wrong")
	}
	if _, err := DecodeMats(blob, []*Mat{NewMat(2, 2), NewMat(1, 7)}); err == nil {
		t.Error("shape mismatch should error")
	}
	if _, err := DecodeMats(blob[:10], nil); err == nil {
		t.Error("truncated blob should error")
	}
	if _, err := DecodeMats(append(blob, 0), nil); err == nil {
		t.Error("trailing bytes should error")
	}
}

// TestLSTMTapeAllocations pins the tape reuse the predictor's training loop
// and Predict rely on: once a tape has seen a sequence as long and layers as
// wide, a forward and backward pass through a two-layer stack allocates
// nothing, at 6 steps as at 30 — where a tape per pass allocated four
// vectors per step and layer forward and three backward.
func TestLSTMTapeAllocations(t *testing.T) {
	const D, H = 3, 8
	stack := NewLSTMStack(2, D, H, NewRand(1))
	grads := NewStackGrads(stack)
	r := NewRand(2).r
	for _, T := range []int{6, 30} {
		inputs := make([][]float64, T)
		dHidden := make([][]float64, T)
		for i := range inputs {
			inputs[i] = []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
			dHidden[i] = make([]float64, H)
			dHidden[i][i%H] = 1
		}
		var tape *StackTape
		allocs := testing.AllocsPerRun(20, func() {
			tape = stack.Forward(tape, inputs)
			stack.Backward(tape, dHidden, grads)
		})
		if allocs != 0 {
			t.Errorf("%d steps: a pass over a warm tape allocates %v times, want 0", T, allocs)
		}
	}
}

// TestReusedTapeMatchesFreshTape: a tape that recorded other sequences —
// longer, shorter, through a wider stack — gives bit for bit the
// activations and gradients a fresh tape gives.
func TestReusedTapeMatchesFreshTape(t *testing.T) {
	r := NewRand(3).r
	seq := func(T, D int) [][]float64 {
		out := make([][]float64, T)
		for i := range out {
			out[i] = make([]float64, D)
			for j := range out[i] {
				out[i][j] = r.NormFloat64()
			}
		}
		return out
	}
	narrow := NewLSTMStack(2, 3, 4, NewRand(4))
	wide := NewLSTMStack(3, 5, 9, NewRand(5))
	inputs, dHidden := seq(7, 3), seq(7, 4)
	run := func(tape *StackTape) ([]float64, []float64) {
		g := NewStackGrads(narrow)
		tape = narrow.Forward(tape, inputs)
		narrow.Backward(tape, dHidden, g)
		var hs, gs []float64
		for i := 0; i < tape.Len(); i++ {
			hs = append(hs, tape.Hidden(i)...)
		}
		for _, m := range g.List() {
			gs = append(gs, m.Data...)
		}
		return hs, gs
	}
	wantH, wantG := run(nil)
	var tape *StackTape
	for _, T := range []int{20, 2} {
		tape = wide.Forward(tape, seq(T, 5))
		wide.Backward(tape, seq(T, 9), NewStackGrads(wide))
		tape = narrow.Forward(tape, seq(T, 3))
		narrow.Backward(tape, seq(T, 4), NewStackGrads(narrow))
	}
	gotH, gotG := run(tape)
	for i := range wantH {
		if math.Float64bits(gotH[i]) != math.Float64bits(wantH[i]) {
			t.Fatalf("hidden value %d: %v on a reused tape, %v on a fresh one", i, gotH[i], wantH[i])
		}
	}
	for i := range wantG {
		if math.Float64bits(gotG[i]) != math.Float64bits(wantG[i]) {
			t.Fatalf("gradient %d: %v on a reused tape, %v on a fresh one", i, gotG[i], wantG[i])
		}
	}
}
