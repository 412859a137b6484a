package bpred

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/registry"
)

func TestRegistryBuiltinsRegistered(t *testing.T) {
	kinds := Registry.Kinds()
	if !sort.StringsAreSorted(kinds) {
		t.Errorf("Registry.Kinds() not sorted: %v", kinds)
	}
	for _, want := range []string{"gshare", "bimodal", "static", "oracle", "local", "combining", "tage"} {
		if _, ok := Registry.Lookup(want); !ok {
			t.Errorf("built-in kind %q not registered", want)
		}
	}
}

// TestRegisterRejectsBadEntries checks the predictor registry's wiring: the
// generic checks (see internal/registry) must see this package's kind, New
// hook and parameter schema.
func TestRegisterRejectsBadEntries(t *testing.T) {
	factory := func(Params, Env) (Predictor, error) { return Null{}, nil }
	cases := []struct {
		name string
		e    Entry
	}{
		{"empty kind", Entry{New: factory}},
		{"nil factory", Entry{Kind: "reg-test-nilfactory"}},
		{"duplicate kind", Entry{Kind: "gshare", New: factory}},
		{"case-folded duplicate", Entry{Kind: "  GSHARE ", New: factory}},
		{"duplicate param", Entry{Kind: "reg-test-dupparam", New: factory,
			Params: []ParamSpec{{Name: "x", Min: 0, Max: 1}, {Name: "x", Min: 0, Max: 1}}}},
		{"empty param name", Entry{Kind: "reg-test-emptyparam", New: factory,
			Params: []ParamSpec{{Name: "", Min: 0, Max: 1}}}},
		{"empty range", Entry{Kind: "reg-test-emptyrange", New: factory,
			Params: []ParamSpec{{Name: "x", Min: 2, Max: 1}}}},
	}
	for _, tc := range cases {
		if err := Registry.Register(tc.e); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// None of the rejects may have landed in the registry.
	for _, k := range Registry.Kinds() {
		if strings.HasPrefix(k, "reg-test-") {
			t.Errorf("rejected registration leaked into the registry: %q", k)
		}
	}
}

func TestNormalizeParamsContract(t *testing.T) {
	// Defaults fill in; result is fresh, never an alias of the input.
	in := Params{"hist_bits": 10}
	out, err := NormalizeParams("gshare", in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Get("hist_bits", 0) != 10 {
		t.Fatalf("normalized params = %v", out)
	}
	out["hist_bits"] = 99
	if in["hist_bits"] != 10 {
		t.Error("NormalizeParams returned an alias of the caller's map")
	}

	// Unknown parameter name is a typed *registry.Error naming the parameter.
	_, err = NormalizeParams("gshare", Params{"tables": 4})
	var pe *registry.Error
	if !errors.As(err, &pe) || pe.Field != "tables" {
		t.Fatalf("unknown param: got %v", err)
	}

	// Out-of-range value.
	_, err = NormalizeParams("tage", Params{"tag_bits": 99})
	if !errors.As(err, &pe) || pe.Field != "tag_bits" {
		t.Fatalf("out-of-range: got %v", err)
	}

	// Required parameter missing (gshare's hist_bits is required).
	_, err = NormalizeParams("gshare", nil)
	if !errors.As(err, &pe) || pe.Field != "hist_bits" {
		t.Fatalf("missing required: got %v", err)
	}

	// Unknown kind lists the registered spellings.
	_, err = NormalizeParams("nonesuch", nil)
	if err == nil || !strings.Contains(err.Error(), "gshare") {
		t.Fatalf("unknown kind error should enumerate kinds, got %v", err)
	}

	// A schema-free kind normalizes to nil.
	out, err = NormalizeParams("oracle", nil)
	if err != nil || out != nil {
		t.Fatalf("oracle normalize = %v, %v; want nil, nil", out, err)
	}

	// tage defaults fill the complete schema.
	out, err = NormalizeParams("tage", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"base_bits", "tables", "idx_bits", "tag_bits", "min_hist", "max_hist"} {
		if _, ok := out[name]; !ok {
			t.Errorf("tage default normalization missing %q: %v", name, out)
		}
	}
}

func TestBuildConstructsEveryBuiltin(t *testing.T) {
	env := Env{TargetOf: func(pc int) int { return pc + 1 }}
	for _, kind := range Registry.Kinds() {
		e, _ := Registry.Lookup(kind)
		// Satisfy required parameters with a mid-range value so the loop
		// stays schema-driven as new kinds are registered.
		params := Params{}
		for _, ps := range e.Params {
			if ps.Required {
				params[ps.Name] = (ps.Min + ps.Max) / 2
			}
		}
		p, err := Build(kind, params, env)
		if err != nil {
			t.Errorf("Build(%q): %v", kind, err)
			continue
		}
		// The predictor must be callable and its accounting must agree
		// with the registry's params-only accounting.
		p.Predict(1, 0)
		p.Update(1, 0, true)
		want, err := StateBytes(kind, params)
		if err != nil {
			t.Errorf("StateBytes(%q): %v", kind, err)
			continue
		}
		if got := p.StateBytes(); got != want {
			t.Errorf("%q: constructed StateBytes %d != registry %d", kind, got, want)
		}
	}
}

func TestBuildRequiredParamPropagates(t *testing.T) {
	if _, err := Build("gshare", nil, Env{}); err == nil {
		t.Fatal("gshare without hist_bits must fail")
	}
	p, err := Build("gshare", Params{"hist_bits": 8}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := StateBytes("gshare", Params{"hist_bits": 8})
	if err != nil || p.StateBytes() != want {
		t.Fatalf("gshare accounting: built %d, registry %d (err %v)", p.StateBytes(), want, err)
	}
}

func TestStaticRequiresTargetResolver(t *testing.T) {
	if _, err := Build("static", nil, Env{}); err == nil {
		t.Fatal("static predictor without Env.TargetOf must fail")
	}
	if _, err := Build("static", nil, Env{TargetOf: func(pc int) int { return 0 }}); err != nil {
		t.Fatal(err)
	}
}
