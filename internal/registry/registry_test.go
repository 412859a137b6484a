package registry

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// testEntry mirrors the shape of the real entry types: a kind, a schema,
// a factory and one more required hook.
type testEntry struct {
	Kind      string
	Params    []ParamSpec
	New       func() int
	Normalize func() int
}

func newTestRegistry() *Registry[testEntry] {
	return New("test", "widget", func(e *testEntry) Meta {
		return Meta{Kind: &e.Kind, Params: e.Params, Hooks: []Hook{{Name: "New", Set: e.New != nil}, {Name: "Normalize", Set: e.Normalize != nil}}}
	})
}

func TestRegisterRejectsBadEntries(t *testing.T) {
	hook := func() int { return 0 }
	r := newTestRegistry()
	r.MustRegister(testEntry{Kind: "base", New: hook, Normalize: hook})
	param := func(ps ...ParamSpec) testEntry {
		return testEntry{Kind: "reg-test-schema", Params: ps, New: hook, Normalize: hook}
	}
	cases := []struct {
		name string
		e    testEntry
		want string
	}{
		{"empty kind", testEntry{Kind: "  ", New: hook, Normalize: hook}, "empty kind"},
		{"nil factory", testEntry{Kind: "reg-test-nilfactory", Normalize: hook}, "missing New hook"},
		{"exact duplicate", testEntry{Kind: "base", New: hook, Normalize: hook}, "already registered"},
		{"case-folded duplicate", testEntry{Kind: "  BASE ", New: hook, Normalize: hook}, "already registered"},
		{"duplicate param name", param(ParamSpec{Name: "x", Max: 1}, ParamSpec{Name: "x", Max: 1}), "duplicate or empty parameter name"},
		{"empty param name", param(ParamSpec{Name: "", Max: 1}), "duplicate or empty parameter name"},
		{"min > max", param(ParamSpec{Name: "x", Min: 2, Max: 1}), "empty range"},
		{"default out of range", param(ParamSpec{Name: "x", Min: 2, Max: 4, Default: 5}), "default 5 out of [2,4]"},
		{"missing hook", testEntry{Kind: "reg-test-nohook", New: hook}, "missing Normalize hook"},
	}
	for _, tc := range cases {
		err := r.Register(tc.e)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if got := r.Kinds(); !reflect.DeepEqual(got, []string{"base"}) {
		t.Errorf("rejected registrations leaked into the registry: %v", got)
	}
	// A required parameter has no default, so its Default is not checked.
	if err := r.Register(param(ParamSpec{Name: "x", Min: 2, Max: 4, Required: true})); err != nil {
		t.Errorf("required parameter without default rejected: %v", err)
	}
}

func TestLookupGetKinds(t *testing.T) {
	hook := func() int { return 0 }
	r := newTestRegistry()
	for _, k := range []string{"Zeta", " alpha ", "mid"} {
		r.MustRegister(testEntry{Kind: k, New: hook, Normalize: hook})
	}
	if got := r.Kinds(); !reflect.DeepEqual(got, []string{"alpha", "mid", "zeta"}) {
		t.Fatalf("Kinds = %v", got)
	}
	e, ok := r.Lookup(" ZETA")
	if !ok || e.Kind != "zeta" {
		t.Fatalf("Lookup canonicalizes: got %+v, %v", e, ok)
	}
	_, err := r.Get("nosuch")
	var re *Error
	if !errors.As(err, &re) || re.Field != "Kind" || !strings.Contains(re.Reason, "unknown widget kind \"nosuch\" (registered: alpha, mid, zeta)") {
		t.Fatalf("unknown kind error = %v", err)
	}
}

func TestNormalizeParams(t *testing.T) {
	schema := []ParamSpec{
		{Name: "b", Min: 1, Max: 9, Required: true},
		{Name: "a", Min: 0, Max: 9, Default: 3},
	}
	in := map[string]int{"b": 5}
	out, err := NormalizeParams("k", "P.", schema, in)
	if err != nil || !reflect.DeepEqual(out, map[string]int{"a": 3, "b": 5}) {
		t.Fatalf("defaults: got %v, %v", out, err)
	}
	out["b"] = 99
	if in["b"] != 5 {
		t.Fatal("result aliases the input map")
	}
	if out, err := NormalizeParams("k", "", nil, nil); out != nil || err != nil {
		t.Fatalf("empty schema: got %v, %v; want nil, nil", out, err)
	}
	cases := []struct {
		p     map[string]int
		field string
	}{
		{nil, "P.b"},                                     // required
		{map[string]int{"b": 10}, "P.b"},                 // out of range
		{map[string]int{"b": 1, "a": -1}, "P.a"},         // out of range, default-able
		{map[string]int{"b": 0, "a": -1}, "P.b"},         // schema order
		{map[string]int{"b": 0, "zz": 1, "c": 1}, "P.c"}, // unknown names first, sorted
	}
	for _, tc := range cases {
		for i := 0; i < 20; i++ {
			_, err := NormalizeParams("k", "P.", schema, tc.p)
			var re *Error
			if !errors.As(err, &re) || re.Field != tc.field || re.Kind != "k" {
				t.Fatalf("%v: got %v, want *Error on %s", tc.p, err, tc.field)
			}
		}
	}
}
