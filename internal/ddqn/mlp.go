// Package ddqn implements the deep-RL baseline of Section V-C: a double
// deep-Q-network agent (van Hasselt et al., AAAI'16) over the same arm
// candidates and contexts the MAB sees, with the paper's hyperparameters
// (4 hidden layers of 8 neurons, gamma 0.99, epsilon decaying from 1 to
// 0.01 by the 2400th sample). The network is a small pure-Go MLP trained
// with SGD on the squared Bellman error.
package ddqn

import (
	"fmt"
	"math"
	"math/rand"
)

// MLP is a fully connected network with ReLU hidden activations and a
// linear scalar output.
type MLP struct {
	sizes   []int // layer sizes including input and output
	weights [][]float64
	biases  [][]float64

	// forward caches (reused across calls to avoid allocation)
	acts [][]float64 // post-activation per layer (acts[0] = input)
	pre  [][]float64 // pre-activation per layer (pre[0] unused)
}

// NewMLP builds a network with the given input size and hidden layout and
// a single linear output, with He-initialised weights.
func NewMLP(rng *rand.Rand, inputDim int, hidden []int) *MLP {
	if inputDim <= 0 {
		panic(fmt.Sprintf("ddqn: input dimension must be positive, got %d", inputDim))
	}
	sizes := append([]int{inputDim}, hidden...)
	sizes = append(sizes, 1)
	m := &MLP{sizes: sizes}
	for l := 1; l < len(sizes); l++ {
		in, out := sizes[l-1], sizes[l]
		w := make([]float64, in*out)
		scale := math.Sqrt(2 / float64(in))
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, make([]float64, out))
	}
	m.acts = make([][]float64, len(sizes))
	m.pre = make([][]float64, len(sizes))
	for l, s := range sizes {
		m.acts[l] = make([]float64, s)
		m.pre[l] = make([]float64, s)
	}
	return m
}

// Forward computes the scalar output for input x.
func (m *MLP) Forward(x []float64) float64 {
	if len(x) != m.sizes[0] {
		panic(fmt.Sprintf("ddqn: input size %d, want %d", len(x), m.sizes[0]))
	}
	copy(m.acts[0], x)
	last := len(m.sizes) - 1
	for l := 1; l < len(m.sizes); l++ {
		in, out := m.sizes[l-1], m.sizes[l]
		w := m.weights[l-1]
		for j := 0; j < out; j++ {
			sum := m.biases[l-1][j]
			col := w[j*in : (j+1)*in]
			prev := m.acts[l-1]
			for i := 0; i < in; i++ {
				sum += col[i] * prev[i]
			}
			m.pre[l][j] = sum
			if l == last {
				m.acts[l][j] = sum // linear output
			} else {
				m.acts[l][j] = relu(sum)
			}
		}
	}
	return m.acts[last][0]
}

// TrainStep performs one SGD step toward target on input x with the given
// learning rate, returning the squared error before the update.
func (m *MLP) TrainStep(x []float64, target, lr float64) float64 {
	out := m.Forward(x)
	errOut := out - target

	last := len(m.sizes) - 1
	// delta for each layer, starting from the output.
	delta := make([][]float64, len(m.sizes))
	delta[last] = []float64{errOut}
	for l := last - 1; l >= 1; l-- {
		in, out := m.sizes[l], m.sizes[l+1]
		w := m.weights[l]
		d := make([]float64, in)
		for i := 0; i < in; i++ {
			var sum float64
			for j := 0; j < out; j++ {
				sum += w[j*in+i] * delta[l+1][j]
			}
			if m.pre[l][i] <= 0 {
				sum = 0 // ReLU gradient
			}
			d[i] = sum
		}
		delta[l] = d
	}
	for l := 1; l < len(m.sizes); l++ {
		in, out := m.sizes[l-1], m.sizes[l]
		w := m.weights[l-1]
		for j := 0; j < out; j++ {
			dj := delta[l][j]
			if dj == 0 {
				continue
			}
			col := w[j*in : (j+1)*in]
			prev := m.acts[l-1]
			for i := 0; i < in; i++ {
				col[i] -= lr * dj * prev[i]
			}
			m.biases[l-1][j] -= lr * dj
		}
	}
	return errOut * errOut
}

// CopyFrom overwrites this network's parameters with src's (target-network
// synchronisation). The layouts must match.
func (m *MLP) CopyFrom(src *MLP) {
	if len(m.weights) != len(src.weights) {
		panic("ddqn: mismatched network layouts")
	}
	for l := range m.weights {
		copy(m.weights[l], src.weights[l])
		copy(m.biases[l], src.biases[l])
	}
}

// Clone returns an independent copy.
func (m *MLP) Clone() *MLP {
	c := &MLP{sizes: append([]int(nil), m.sizes...)}
	for l := range m.weights {
		c.weights = append(c.weights, append([]float64(nil), m.weights[l]...))
		c.biases = append(c.biases, append([]float64(nil), m.biases[l]...))
	}
	c.acts = make([][]float64, len(c.sizes))
	c.pre = make([][]float64, len(c.sizes))
	for l, s := range c.sizes {
		c.acts[l] = make([]float64, s)
		c.pre[l] = make([]float64, s)
	}
	return c
}

func relu(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}
