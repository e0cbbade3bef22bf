package ddqn

import (
	"math"

	"dbabandits/internal/linalg"
	"dbabandits/internal/mab"
	"dbabandits/internal/snaprand"
)

// transition is one replay-buffer entry: the chosen arm's context, the
// observed reward, and the candidate contexts available at the next
// decision point (for the double-Q bootstrap).
type transition struct {
	x    []float64
	r    float64
	next [][]float64
}

// AgentOptions configure the DDQN agent: the variant and the seed. The
// training shape follows the paper's Section V-C experiment setup and
// is the constants below.
type AgentOptions struct {
	// SingleColumn restricts candidates to single-column indexes (the
	// DDQN-SC variant of Sharma et al. as run in Figure 8).
	SingleColumn bool
	// Seed drives all randomisation (exploration and initial weights).
	Seed int64
}

const (
	// gamma is the discount factor.
	gamma = 0.99
	// epsStart and epsEnd bound the exponential exploration decay:
	// epsilon starts at epsStart and reaches epsEnd at epsDecaySamples.
	epsStart        = 1.0
	epsEnd          = 0.01
	epsDecaySamples = 2400
	// bufferSize, batchSize and trainStepsPerRound shape replay
	// training: the replay buffer's capacity, the minibatch size, and
	// the minibatches trained per Observe.
	bufferSize         = 2048
	batchSize          = 32
	trainStepsPerRound = 8
	// learningRate is the SGD learning rate.
	learningRate = 5e-3
	// targetSyncEvery synchronises the target network every N training
	// rounds.
	targetSyncEvery = 5
	// rewardScale divides rewards before regression to keep targets in a
	// numerically friendly range (seconds).
	rewardScale = 100
)

// Agent is the DDQN index-selection agent. It consumes the same arms and
// contexts as the MAB tuner; the Q-network maps an arm's context to its
// estimated value, and rounds are selected epsilon-greedily. When the
// agent explores, the whole round's selection is random (as in the
// paper: "if the agent decides to explore, then the choice of the set of
// indices will be randomly made for that entire round").
type Agent struct {
	opts   AgentOptions
	rng    *snaprand.Rand
	online *MLP
	target *MLP
	buffer []transition
	bufPos int
	full   bool

	samples     int // arms chosen so far (epsilon decay clock)
	trainRounds int
}

// NewAgent constructs the agent for the given context dimension.
func NewAgent(dim int, opts AgentOptions) *Agent {
	// The draw-counting generator emits the identical sequence to the
	// plain rand.New(rand.NewSource(seed)) used historically, so every
	// pinned fixture is unchanged — and the agent becomes checkpointable.
	rng := snaprand.New(opts.Seed)
	// The Q-network's hidden layout: 4 layers of 8 neurons.
	online := NewMLP(rng.Rand, dim, []int{8, 8, 8, 8})
	return &Agent{
		opts:   opts,
		rng:    rng,
		online: online,
		target: online.Clone(),
		buffer: make([]transition, 0, bufferSize),
	}
}

// Epsilon returns the current exploration probability (exponential decay
// from epsStart to epsEnd over epsDecaySamples samples).
func (a *Agent) Epsilon() float64 {
	if a.samples >= epsDecaySamples {
		return epsEnd
	}
	rate := math.Log(epsStart/epsEnd) / epsDecaySamples
	return epsStart * math.Exp(-rate*float64(a.samples))
}

// FilterArms applies the variant's candidate restriction (DDQN-SC keeps
// single-column key-only arms).
func (a *Agent) FilterArms(arms []*mab.Arm, contexts []linalg.Vector) ([]*mab.Arm, []linalg.Vector) {
	if !a.opts.SingleColumn {
		return arms, contexts
	}
	var fa []*mab.Arm
	var fc []linalg.Vector
	for i, arm := range arms {
		if len(arm.Index.Key) == 1 && len(arm.Index.Include) == 0 {
			fa = append(fa, arm)
			fc = append(fc, contexts[i])
		}
	}
	return fa, fc
}

// SelectConfig chooses a set of arms within the memory budget. One call
// corresponds to one round; each arm chosen counts as one sample for the
// epsilon schedule.
func (a *Agent) SelectConfig(arms []*mab.Arm, contexts []linalg.Vector, budgetBytes int64) []*mab.Arm {
	arms, contexts = a.FilterArms(arms, contexts)
	if len(arms) == 0 {
		return nil
	}
	explore := a.rng.Float64() < a.Epsilon()

	type cand struct {
		arm *mab.Arm
		q   float64
	}
	cands := make([]cand, len(arms))
	for i, arm := range arms {
		var q float64
		if explore {
			q = a.rng.Float64()
		} else {
			q = a.online.Forward(contexts[i])
		}
		cands[i] = cand{arm: arm, q: q}
	}
	// Greedy fill by Q (or random priority when exploring).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].q > cands[j-1].q; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	var out []*mab.Arm
	remaining := budgetBytes
	for _, c := range cands {
		if !explore && c.q <= 0 {
			break
		}
		if c.arm.SizeBytes > remaining {
			continue
		}
		out = append(out, c.arm)
		remaining -= c.arm.SizeBytes
		a.samples++
		if explore && a.rng.Float64() < 0.5 {
			// Random-length exploration rounds: stop early at random so
			// the agent also explores small configurations.
			break
		}
	}
	return out
}

// Observe records the rewards of the previously selected arms and the
// candidate contexts of the next decision point, then trains on replayed
// minibatches with the double-Q target.
func (a *Agent) Observe(contexts []linalg.Vector, rewards []float64, nextCandidates []linalg.Vector) {
	next := make([][]float64, len(nextCandidates))
	for i, x := range nextCandidates {
		next[i] = x
	}
	for i, x := range contexts {
		tr := transition{x: x, r: rewards[i] / rewardScale, next: next}
		if len(a.buffer) < bufferSize {
			a.buffer = append(a.buffer, tr)
		} else {
			a.buffer[a.bufPos] = tr
			a.bufPos = (a.bufPos + 1) % bufferSize
			a.full = true
		}
	}
	if len(a.buffer) == 0 {
		return
	}
	for step := 0; step < trainStepsPerRound; step++ {
		for b := 0; b < batchSize; b++ {
			tr := a.buffer[a.rng.Intn(len(a.buffer))]
			y := tr.r + gamma*a.doubleQBootstrap(tr.next)
			a.online.TrainStep(tr.x, y, learningRate)
		}
	}
	a.trainRounds++
	if a.trainRounds%targetSyncEvery == 0 {
		a.target.CopyFrom(a.online)
	}
}

// doubleQBootstrap returns Q_target(s', argmax_a Q_online(s', a)) over the
// next decision point's candidates; zero when there are none (terminal).
func (a *Agent) doubleQBootstrap(next [][]float64) float64 {
	if len(next) == 0 {
		return 0
	}
	bestIdx := 0
	bestQ := math.Inf(-1)
	for i, x := range next {
		if q := a.online.Forward(x); q > bestQ {
			bestQ = q
			bestIdx = i
		}
	}
	v := a.target.Forward(next[bestIdx])
	if v < 0 {
		// The agent can always choose an empty configuration, so the
		// continuation value is bounded below by zero.
		return 0
	}
	return v
}
