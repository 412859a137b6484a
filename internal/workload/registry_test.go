package workload

import (
	"errors"
	"strings"
	"testing"
)

func TestExtendedFamiliesGenerate(t *testing.T) {
	// Long enough to escape predictor warmup, which otherwise dominates
	// the near-zero-rate branchless family.
	for _, b := range Extended(250_000) {
		b := b
		t.Run(b.Spec.Name, func(t *testing.T) {
			t.Parallel()
			p, err := Generate(b.Spec)
			if err != nil {
				t.Fatal(err)
			}
			rate, _, err := GshareMispredictRate(p, 11, 250_000)
			if err != nil {
				t.Fatal(err)
			}
			// Sanity band around each family's design target: the taxonomy
			// placement (clustered / mixed / predictable) must hold.
			switch b.Spec.Name {
			case "ptrchase":
				if rate < 0.15 {
					t.Errorf("ptrchase rate %.4f; the pointer-chase family must stay hard to predict", rate)
				}
			case "interp-dispatch":
				if rate < 0.02 || rate > 0.20 {
					t.Errorf("interp-dispatch rate %.4f outside the mixed band", rate)
				}
			case "branchless":
				// The family's branch density is so low that table warmup
				// is still a visible share of this rate at this length.
				if rate > 0.03 {
					t.Errorf("branchless rate %.4f; the branchless family must be near-perfectly predictable", rate)
				}
			}
		})
	}
}

func TestByNameResolvesAllFamilies(t *testing.T) {
	names := Names()
	for _, b := range Extended(1) {
		names = append(names, b.Spec.Name)
	}
	for _, name := range names {
		b, err := ByName(name, 12_345)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if b.Spec.Name != name {
			t.Fatalf("ByName(%s) resolved %s", name, b.Spec.Name)
		}
		if b.Spec.TargetInsts != 12_345 {
			t.Fatalf("ByName(%s) did not apply the length override: %d", name, b.Spec.TargetInsts)
		}
	}
}

func TestByNameUnknownEnumerates(t *testing.T) {
	_, err := ByName("no-such-workload", 0)
	if err == nil {
		t.Fatal("unknown name must error")
	}
	for _, want := range []string{"compress", "go", "ptrchase", "branchless"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not enumerate %q", err, want)
		}
	}
}

func TestNamesStaysTableOne(t *testing.T) {
	// Names() feeds the default experiment tables and committed goldens:
	// suite growth must not leak into it.
	if n := len(Names()); n != 8 {
		t.Fatalf("Names() has %d entries, want the 8 Table 1 stand-ins", n)
	}
	for _, name := range Names() {
		if name == "ptrchase" || name == "interp-dispatch" || name == "branchless" {
			t.Fatalf("extended family %q leaked into Names()", name)
		}
	}
}

func TestCalibrateBiasReachesTarget(t *testing.T) {
	spec := Spec{
		Name: "cal-reachable", Seed: 11, TargetInsts: 120_000,
		Branches: []BranchSpec{
			{Kind: KindBernoulli, Bias: 0.6},
			{Kind: KindBernoulli, Bias: 0.8},
			{Kind: KindLoop, Trip: 8},
		},
		BlockLen: 4, Chains: 2,
	}
	cal, rate, err := CalibrateBias(spec, 0.06, 11, 120_000, 0.05)
	if err != nil {
		t.Fatalf("CalibrateBias: %v", err)
	}
	if rel := (rate - 0.06) / 0.06; rel > 0.05 || rel < -0.05 {
		t.Fatalf("calibrated rate %.4f misses target 0.06 by %+.1f%%", rate, 100*rel)
	}
	// Structure is untouched; only Bernoulli biases move.
	if cal.Branches[2] != spec.Branches[2] {
		t.Fatalf("calibration moved a structured site: %+v", cal.Branches[2])
	}
	if cal.Name != spec.Name || cal.Seed != spec.Seed {
		t.Fatalf("calibration changed identity: %+v", cal)
	}
}

func TestCalibrateBiasTypedError(t *testing.T) {
	// A single near-constant knob cannot reach a 40% misprediction target
	// at its ceiling; the error must be the typed near-miss, and the
	// returned spec the closest candidate, not a silent clamp.
	spec := Spec{
		Name: "cal-unreachable", Seed: 13, TargetInsts: 80_000,
		Branches: []BranchSpec{
			{Kind: KindLoop, Trip: 32},
			{Kind: KindLoop, Trip: 16},
			{Kind: KindLoop, Trip: 8},
			{Kind: KindBernoulli, Bias: 0.95},
		},
		BlockLen: 8, Chains: 4,
	}
	_, rate, err := CalibrateBias(spec, 0.40, 11, 80_000, 0.05)
	if err == nil {
		t.Fatalf("target 0.40 must be unreachable (got rate %.4f)", rate)
	}
	var ce *CalibrationError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not *CalibrationError", err)
	}
	if ce.Target != 0.40 || ce.Hi >= 0.40 || ce.Lo > ce.Hi || ce.Tolerance != 0.05 {
		t.Fatalf("near-miss fields: %+v", ce)
	}
	if !strings.Contains(ce.Error(), "unreachable") {
		t.Fatalf("error text %q", ce.Error())
	}
	if rate != ce.Achieved {
		t.Fatalf("returned rate %.4f != Achieved %.4f", rate, ce.Achieved)
	}
}
