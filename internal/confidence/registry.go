package confidence

import (
	"strings"

	"repro/internal/registry"
)

// Spec is the kind-agnostic description of a confidence estimator: the
// named fields cover the built-in JRS/adaptive family (they are part of the
// frozen polypath/v1 wire format), and Params is the open extension point
// for estimators registered from outside this package. A registered kind's
// Normalize canonicalizes the fields it does not use, so specs describing
// the same estimator compare and hash identically.
type Spec struct {
	Kind          string
	IndexBits     int
	CtrBits       int
	Threshold     int
	EnhancedIndex bool
	// AdaptiveMinPVN / AdaptiveWindow configure the adaptive kind.
	AdaptiveMinPVN float64
	AdaptiveWindow int
	// Params carries extra integer parameters for registered estimators
	// that need more than the named fields. nil and empty are equivalent.
	Params map[string]int
}

// Entry describes one registered estimator kind. Normalize validates the
// spec and returns its canonical form (inert fields zeroed, defaults
// filled); New constructs the estimator from a normalized spec; StateBytes
// returns the hardware budget in bytes for a normalized spec (nil = 0).
type Entry struct {
	Kind       string
	Doc        string
	Normalize  func(Spec) (Spec, error)
	New        func(Spec) (Estimator, error)
	StateBytes func(Spec) int
}

// Registry holds every estimator kind, built-in or registered at runtime.
var Registry = registry.New("confidence", "confidence", func(e *Entry) registry.Meta {
	return registry.Meta{Kind: &e.Kind, Hooks: []registry.Hook{{Name: "New", Set: e.New != nil}, {Name: "Normalize", Set: e.Normalize != nil}}}
})

// Normalize validates s against its kind's constraints and returns the
// canonical spec. The returned spec never aliases s.Params.
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
	ns.Params = registry.CloneParams(ns.Params)
	return ns, nil
}

// Build normalizes s and constructs the estimator.
func Build(s Spec) (Estimator, error) {
	ns, err := Normalize(s)
	if err != nil {
		return nil, err
	}
	e, _ := Registry.Lookup(ns.Kind)
	return e.New(ns)
}

// SpecStateBytes normalizes s and returns its hardware budget in bytes.
func SpecStateBytes(s Spec) (int, error) {
	ns, err := Normalize(s)
	if err != nil {
		return 0, err
	}
	e, _ := Registry.Lookup(ns.Kind)
	if e.StateBytes == nil {
		return 0, nil
	}
	return e.StateBytes(ns), nil
}

// rejectParams is shared by the built-in kinds, none of which use the open
// Params map.
func rejectParams(kind string, s Spec) error {
	if len(s.Params) > 0 {
		names := registry.SortedNames(s.Params, nil)
		return registry.Errorf(kind, "Params", "kind accepts no extra parameters (got %s)", strings.Join(names, ", "))
	}
	return nil
}

// normalizeJRSFields validates the JRS table sizing shared by the jrs and
// adaptive kinds.
func normalizeJRSFields(kind string, s Spec) (Spec, error) {
	if err := rejectParams(kind, s); err != nil {
		return Spec{}, err
	}
	if s.IndexBits < 1 || s.IndexBits > 28 {
		return Spec{}, registry.Errorf(kind, "IndexBits", "%d out of [1,28]", s.IndexBits)
	}
	if s.CtrBits < 1 || s.CtrBits > 8 {
		return Spec{}, registry.Errorf(kind, "CtrBits", "%d out of [1,8]", s.CtrBits)
	}
	if max := (1 << uint(s.CtrBits)) - 1; s.Threshold < 0 || s.Threshold > max {
		return Spec{}, registry.Errorf(kind, "Threshold", "%d exceeds the %d-bit counter maximum %d (0 selects saturation)", s.Threshold, s.CtrBits, max)
	}
	return s, nil
}

func jrsFromSpec(s Spec) *JRS {
	return NewJRS(JRSConfig{
		IndexBits:     s.IndexBits,
		CtrBits:       s.CtrBits,
		Threshold:     s.Threshold,
		EnhancedIndex: s.EnhancedIndex,
	})
}

// degenerateEntry registers a stateless estimator kind: every sizing field
// is inert and canonicalized away.
func degenerateEntry(kind, doc string, est Estimator) Entry {
	return Entry{
		Kind: kind,
		Doc:  doc,
		Normalize: func(s Spec) (Spec, error) {
			if err := rejectParams(kind, s); err != nil {
				return Spec{}, err
			}
			return Spec{Kind: kind}, nil
		},
		New: func(Spec) (Estimator, error) { return est, nil },
	}
}

func init() {
	Registry.MustRegister(Entry{
		Kind: "jrs",
		Doc:  "Jacobsen-Rotenberg-Smith resetting counters (the paper's estimator)",
		Normalize: func(s Spec) (Spec, error) {
			ns, err := normalizeJRSFields("jrs", s)
			if err != nil {
				return Spec{}, err
			}
			ns.AdaptiveMinPVN = 0
			ns.AdaptiveWindow = 0
			return ns, nil
		},
		New:        func(s Spec) (Estimator, error) { return jrsFromSpec(s), nil },
		StateBytes: func(s Spec) int { return (1 << uint(s.IndexBits)) * s.CtrBits / 8 },
	})
	Registry.MustRegister(Entry{
		Kind: "adaptive",
		Doc:  "JRS wrapped with the Sec. 5.1 PVN monitor (reverts to monopath when PVN drops)",
		Normalize: func(s Spec) (Spec, error) {
			ns, err := normalizeJRSFields("adaptive", s)
			if err != nil {
				return Spec{}, err
			}
			if ns.AdaptiveMinPVN < 0 || ns.AdaptiveMinPVN >= 1 {
				return Spec{}, registry.Errorf("adaptive", "AdaptiveMinPVN", "%g out of [0,1) (0 selects the default 0.30)", ns.AdaptiveMinPVN)
			}
			if ns.AdaptiveWindow != 0 && ns.AdaptiveWindow < 8 {
				return Spec{}, registry.Errorf("adaptive", "AdaptiveWindow", "%d must be 0 (default 256) or >= 8", ns.AdaptiveWindow)
			}
			if ns.AdaptiveMinPVN == 0 {
				ns.AdaptiveMinPVN = 0.30
			}
			if ns.AdaptiveWindow == 0 {
				ns.AdaptiveWindow = 256
			}
			return ns, nil
		},
		New: func(s Spec) (Estimator, error) {
			return NewAdaptive(jrsFromSpec(s), AdaptiveConfig{MinPVN: s.AdaptiveMinPVN, Window: s.AdaptiveWindow}), nil
		},
		StateBytes: func(s Spec) int {
			return (1<<uint(s.IndexBits))*s.CtrBits/8 + s.AdaptiveWindow/8 + 4
		},
	})
	Registry.MustRegister(degenerateEntry("oracle", "perfect estimator: low confidence exactly on mispredictions", Oracle{}))
	Registry.MustRegister(degenerateEntry("always-high", "never diverge (monopath behaviour)", AlwaysHigh{}))
	Registry.MustRegister(degenerateEntry("always-low", "diverge on every branch resources permit", AlwaysLow{}))
}
