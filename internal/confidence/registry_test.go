package confidence

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/registry"
)

func TestConfRegistryBuiltins(t *testing.T) {
	kinds := Registry.Kinds()
	if !sort.StringsAreSorted(kinds) {
		t.Errorf("Registry.Kinds() not sorted: %v", kinds)
	}
	for _, want := range []string{"jrs", "adaptive", "oracle", "always-high", "always-low"} {
		if _, ok := Registry.Lookup(want); !ok {
			t.Errorf("built-in kind %q not registered", want)
		}
	}
}

// TestConfRegisterRejectsBadEntries checks the estimator registry's wiring:
// the generic checks (see internal/registry) must see this package's kind
// and both of its hooks.
func TestConfRegisterRejectsBadEntries(t *testing.T) {
	factory := func(Spec) (Estimator, error) { return AlwaysHigh{}, nil }
	norm := func(s Spec) (Spec, error) { return s, nil }
	cases := []struct {
		name string
		e    Entry
	}{
		{"empty kind", Entry{Normalize: norm, New: factory}},
		{"nil factory", Entry{Kind: "conf-test-nilfactory", Normalize: norm}},
		{"nil normalize", Entry{Kind: "conf-test-nilnormalize", New: factory}},
		{"duplicate", Entry{Kind: "jrs", Normalize: norm, New: factory}},
		{"case-folded duplicate", Entry{Kind: " JRS ", Normalize: norm, New: factory}},
	}
	for _, tc := range cases {
		if err := Registry.Register(tc.e); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestConfNormalizeCanonicalizesDegenerateKinds(t *testing.T) {
	// Inert sizing on a stateless kind is canonicalized away entirely, so
	// two spellings of "always-high" are one spec (and one canonical hash
	// upstream).
	a, err := Normalize(Spec{Kind: "always-high", IndexBits: 11, CtrBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Normalize(Spec{Kind: "ALWAYS-HIGH", Threshold: 3, EnhancedIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, Spec{Kind: "always-high"}) {
		t.Errorf("degenerate normalization not canonical: %+v vs %+v", a, b)
	}
}

func TestConfNormalizeJRSBounds(t *testing.T) {
	cases := []struct {
		field string
		spec  Spec
	}{
		{"IndexBits", Spec{Kind: "jrs", IndexBits: 0, CtrBits: 1}},
		{"IndexBits", Spec{Kind: "jrs", IndexBits: 29, CtrBits: 1}},
		{"CtrBits", Spec{Kind: "jrs", IndexBits: 11, CtrBits: 9}},
		{"Threshold", Spec{Kind: "jrs", IndexBits: 11, CtrBits: 2, Threshold: 4}},
		{"Params", Spec{Kind: "jrs", IndexBits: 11, CtrBits: 1, Params: map[string]int{"x": 1}}},
		{"AdaptiveMinPVN", Spec{Kind: "adaptive", IndexBits: 11, CtrBits: 1, AdaptiveMinPVN: 1.0}},
		{"AdaptiveWindow", Spec{Kind: "adaptive", IndexBits: 11, CtrBits: 1, AdaptiveWindow: 3}},
	}
	for _, tc := range cases {
		_, err := Normalize(tc.spec)
		var se *registry.Error
		if !errors.As(err, &se) || se.Field != tc.field {
			t.Errorf("spec %+v: want *registry.Error on %s, got %v", tc.spec, tc.field, err)
		}
	}
}

func TestConfNormalizeFillsAdaptiveDefaults(t *testing.T) {
	ns, err := Normalize(Spec{Kind: "adaptive", IndexBits: 11, CtrBits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ns.AdaptiveMinPVN != 0.30 || ns.AdaptiveWindow != 256 {
		t.Errorf("adaptive defaults not filled: %+v", ns)
	}
	// JRS zeroes the adaptive fields it does not use.
	ns, err = Normalize(Spec{Kind: "jrs", IndexBits: 11, CtrBits: 1, AdaptiveMinPVN: 0.9, AdaptiveWindow: 512})
	if err != nil {
		t.Fatal(err)
	}
	if ns.AdaptiveMinPVN != 0 || ns.AdaptiveWindow != 0 {
		t.Errorf("jrs must canonicalize inert adaptive fields: %+v", ns)
	}
}

func TestConfNormalizeUnknownKindListsRegistry(t *testing.T) {
	_, err := Normalize(Spec{Kind: "grapefruit"})
	if err == nil || !strings.Contains(err.Error(), "jrs") || !strings.Contains(err.Error(), "always-low") {
		t.Fatalf("unknown kind error should enumerate kinds, got %v", err)
	}
}

func TestConfBuildEveryBuiltin(t *testing.T) {
	for _, kind := range Registry.Kinds() {
		est, err := Build(Spec{Kind: kind, IndexBits: 8, CtrBits: 2})
		if err != nil {
			t.Errorf("Build(%q): %v", kind, err)
			continue
		}
		est.Estimate(1, 0, true, Hint{})
		est.Update(1, 0, true, true)
	}
}

func TestConfSpecStateBytes(t *testing.T) {
	// jrs: 2^idx * ctr bits / 8.
	n, err := SpecStateBytes(Spec{Kind: "jrs", IndexBits: 11, CtrBits: 4})
	if err != nil || n != (1<<11)*4/8 {
		t.Errorf("jrs state bytes = %d (err %v)", n, err)
	}
	// adaptive adds the PVN window shift register and counter.
	a, err := SpecStateBytes(Spec{Kind: "adaptive", IndexBits: 11, CtrBits: 4})
	if err != nil || a != (1<<11)*4/8+256/8+4 {
		t.Errorf("adaptive state bytes = %d (err %v)", a, err)
	}
	// Degenerate kinds occupy no storage.
	z, err := SpecStateBytes(Spec{Kind: "always-low"})
	if err != nil || z != 0 {
		t.Errorf("always-low state bytes = %d (err %v)", z, err)
	}
}
