package policy

import (
	"fmt"

	"repro/internal/registry"
)

// DefaultEpochCycles is the epoch length used when a spec leaves
// EpochCycles zero: long enough that epoch bookkeeping is invisible in the
// cycle loop, short enough to catch phase changes in the scaled workloads.
const DefaultEpochCycles = 4096

// MaxEpochCycles bounds the epoch length (2^24 cycles ≈ any full run).
const MaxEpochCycles = 1 << 24

// MinEpochCycles bounds the epoch length from below: shorter epochs give
// the controller statistically meaningless deltas.
const MinEpochCycles = 64

// Spec is the kind-agnostic description of a policy controller: which
// controller kind runs, the epoch length in cycles, the candidate setting
// set it selects over, and the kind's extra integer parameters. A
// registered kind's Normalize canonicalizes the fields it does not use, so
// specs describing the same controller compare and hash identically.
type Spec struct {
	Kind        string
	EpochCycles int
	Candidates  []Setting
	// Params carries integer parameters by schema name; a kind's Normalize
	// fills defaults and rejects unknown names. nil and empty are
	// equivalent. Fractional parameters travel in milli-units (e.g.
	// hysteresis_milli 50 = 5%), keeping the wire format integer-only.
	Params map[string]int
}

// Param returns the named parameter, or def when absent.
func (s Spec) Param(name string, def int) int {
	if v, ok := s.Params[name]; ok {
		return v
	}
	return def
}

// Entry describes one registered controller kind. Normalize validates the
// spec and returns its canonical form (inert fields zeroed, defaults
// filled); New constructs the controller from a normalized spec. Params is
// the kind's fixed parameter schema, checked at registration (nil when it
// has none or, like oracle's schedule, a dynamic one).
type Entry struct {
	Kind      string
	Doc       string
	Params    []registry.ParamSpec
	Normalize func(Spec) (Spec, error)
	New       func(Spec) (Controller, error)
}

// Registry holds every controller kind, built-in or registered at runtime.
var Registry = registry.New("policy", "policy", func(e *Entry) registry.Meta {
	return registry.Meta{Kind: &e.Kind, Params: e.Params, Hooks: []registry.Hook{{Name: "New", Set: e.New != nil}, {Name: "Normalize", Set: e.Normalize != nil}}}
})

// Normalize validates s against its kind's constraints and returns the
// canonical spec. The returned spec never aliases s.Candidates or
// s.Params.
func Normalize(s Spec) (Spec, error) {
	e, err := Registry.Get(s.Kind)
	if err != nil {
		return Spec{}, err
	}
	s.Kind = e.Kind
	ns, err := e.Normalize(s)
	if err != nil {
		return Spec{}, err
	}
	ns.Candidates = append([]Setting(nil), ns.Candidates...)
	ns.Params = registry.CloneParams(ns.Params)
	return ns, nil
}

// Build normalizes s and constructs the controller.
func Build(s Spec) (Controller, error) {
	ns, err := Normalize(s)
	if err != nil {
		return nil, err
	}
	e, _ := Registry.Lookup(ns.Kind)
	return e.New(ns)
}

// normalizeCommon validates the fields every built-in kind shares: epoch
// length and candidate knob ranges.
func normalizeCommon(kind string, s Spec) (Spec, error) {
	if s.EpochCycles == 0 {
		s.EpochCycles = DefaultEpochCycles
	}
	if s.EpochCycles < MinEpochCycles || s.EpochCycles > MaxEpochCycles {
		return Spec{}, registry.Errorf(kind, "EpochCycles", "%d out of [%d,%d] (0 selects the default %d)", s.EpochCycles, MinEpochCycles, MaxEpochCycles, DefaultEpochCycles)
	}
	for i, c := range s.Candidates {
		if c.ConfThreshold < -1 || c.ConfThreshold > 255 {
			return Spec{}, registry.Errorf(kind, fmt.Sprintf("Candidates[%d].ConfThreshold", i), "%d out of [-1,255] (-1 = saturation, 0 = configured)", c.ConfThreshold)
		}
		if c.MaxDivergences < -1 || c.MaxDivergences > 1<<20 {
			return Spec{}, registry.Errorf(kind, fmt.Sprintf("Candidates[%d].MaxDivergences", i), "%d out of [-1,%d] (-1 = divergence off, 0 = configured)", c.MaxDivergences, 1<<20)
		}
		if c.FetchWidth < 0 || c.FetchWidth > 64 {
			return Spec{}, registry.Errorf(kind, fmt.Sprintf("Candidates[%d].FetchWidth", i), "%d out of [0,64] (0 = configured width)", c.FetchWidth)
		}
	}
	return s, nil
}
