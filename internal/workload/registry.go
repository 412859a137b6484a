package workload

import (
	"fmt"
	"sort"
	"strings"
)

// Extended returns the workload families beyond the paper's Table 1
// stand-ins, in registration order. These grow the suite along the axes
// of the predictability taxonomy (bias, history depth, misprediction
// clustering) rather than mimicking specific SPECint95 programs:
//
//   - ptrchase: pointer-chasing list/tree traversal. Load-dominated, low
//     ILP (two dependence chains), data-dependent branches that resolve
//     only after a deep load+ALU chain — near-random outcomes, so
//     mispredictions are frequent and clustered (go-like end of Figure 8)
//     with a long resolution latency that magnifies the penalty.
//   - interp-dispatch: a bytecode-interpreter main loop. A 16-way indirect
//     dispatch switch (BTB territory), opcode-dependent conditional
//     branches of moderate bias, and a call per "opcode" — gcc/perl-like
//     mixed behaviour.
//   - branchless: a branchless/SIMD-style streaming kernel. Long counted
//     loops around wide arithmetic blocks; essentially every branch is a
//     learnable back edge, so the misprediction rate is near zero
//     (vortex-beyond end of the spectrum; stresses everything except the
//     predictor).
//   - m88ksim-phased: the m88ksim PVN-anomaly stand-in with program
//     phases. Its data-driven branches alternate every 256 iterations
//     between the m88ksim character (bias 0.95: isolated mispredictions,
//     low PVN, where eager execution is mostly overhead) and a chaotic
//     phase (bias 0.55: clustered mispredictions where divergence pays).
//     No fixed policy wins both phases — the showcase workload for the
//     fig-adaptive experiment family.
func Extended(targetInsts uint64) []Benchmark {
	if targetInsts == 0 {
		targetInsts = DefaultTargetInsts
	}
	return []Benchmark{
		{
			PaperMispredict: 0.22, // design target, not Table 1
			Spec: Spec{
				Name: "ptrchase", Seed: 201, TargetInsts: targetInsts,
				Branches: []BranchSpec{
					{Kind: KindBernoulli, Bias: 0.5},
					{Kind: KindBernoulli, Bias: 0.5},
					{Kind: KindBernoulli, Bias: 0.45},
					{Kind: KindBernoulli, Bias: 0.6},
					{Kind: KindLoop, Trip: 4},
				},
				BlockLen: 5, Chains: 2,
				LoadFrac: 0.45, StoreFrac: 0.04,
				PredDepth: 12,
			},
		},
		{
			PaperMispredict: 0.08, // design target, not Table 1
			Spec: Spec{
				Name: "interp-dispatch", Seed: 202, TargetInsts: targetInsts,
				Branches: []BranchSpec{
					{Kind: KindSwitch, Fanout: 16},
					{Kind: KindBernoulli, Bias: 0.75},
					{Kind: KindBernoulli, Bias: 0.9},
					{Kind: KindPattern, Period: 6},
					{Kind: KindCall, CallDepth: 1},
					{Kind: KindLoop, Trip: 8},
				},
				BlockLen: 6, Chains: 4,
				LoadFrac: 0.28, StoreFrac: 0.10,
				PredDepth: 5,
			},
		},
		{
			PaperMispredict: 0.004, // design target, not Table 1
			Spec: Spec{
				Name: "branchless", Seed: 203, TargetInsts: targetInsts,
				Branches: []BranchSpec{
					{Kind: KindLoop, Trip: 64},
					{Kind: KindLoop, Trip: 48},
					{Kind: KindLoop, Trip: 32},
				},
				BlockLen: 24, Chains: 8,
				LoadFrac: 0.12, StoreFrac: 0.06, MulFrac: 0.10, FPFrac: 0.15,
				PredDepth: 0,
			},
		},
		{
			PaperMispredict: 0.042, // phase A target; phase B is far worse by design
			Spec: Spec{
				Name: "m88ksim-phased", Seed: 204, TargetInsts: targetInsts,
				Branches: []BranchSpec{
					{Kind: KindBernoulli, Bias: 0.95, Bias2: 0.55, PhaseLen: 256},
					{Kind: KindBernoulli, Bias: 0.95, Bias2: 0.55, PhaseLen: 256},
					{Kind: KindBernoulli, Bias: 0.95, Bias2: 0.55, PhaseLen: 256},
					{Kind: KindBernoulli, Bias: 0.95, Bias2: 0.55, PhaseLen: 256},
					{Kind: KindBernoulli, Bias: 0.95, Bias2: 0.60, PhaseLen: 256},
					{Kind: KindBernoulli, Bias: 0.95, Bias2: 0.60, PhaseLen: 256},
					{Kind: KindBernoulli, Bias: 0.97},
					{Kind: KindBernoulli, Bias: 0.97},
					{Kind: KindBernoulli, Bias: 0.995},
					{Kind: KindBernoulli, Bias: 0.995},
				},
				BlockLen: 12, Chains: 8,
				LoadFrac: 0.10, StoreFrac: 0.05, MulFrac: 0.02,
				PredDepth: 4,
			},
		},
	}
}

// ByName resolves a workload family by name: the Table 1 suite, then the
// extended families. targetInsts overrides the spec's dynamic length when
// non-zero. Unknown names enumerate every family.
func ByName(name string, targetInsts uint64) (Benchmark, error) {
	all := append(Suite(targetInsts), Extended(targetInsts)...)
	names := make([]string, len(all))
	for i, b := range all {
		if b.Spec.Name == name {
			return b, nil
		}
		names[i] = b.Spec.Name
	}
	sort.Strings(names)
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q (registered: %s)", name, strings.Join(names, ", "))
}

// CheckSpec validates a workload spec without generating it. Inline specs
// arriving over the wire (polyserve trace-derived cells) are validated
// with this before Generate.
func CheckSpec(spec Spec) error { return checkSpec(spec) }
