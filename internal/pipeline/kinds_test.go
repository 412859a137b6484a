package pipeline

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bpred"
	"repro/internal/confidence"
)

// TestKindRoundTrips drives every registered kind (and every enumerator of
// the closed enums) through String() and back through its parser,
// exhaustively: a spelling printed anywhere in the system must parse
// everywhere in the system.
func TestKindRoundTrips(t *testing.T) {
	for _, name := range bpred.Registry.Kinds() {
		got, err := ParsePredictorKind(name)
		if err != nil || got.String() != name {
			t.Errorf("predictor %q: round-trip got %v, err %v", name, got, err)
		}
	}
	for _, name := range confidence.Registry.Kinds() {
		got, err := ParseConfidenceKind(name)
		if err != nil || got.String() != name {
			t.Errorf("confidence %q: round-trip got %v, err %v", name, got, err)
		}
	}
	for m := range modeNames {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("mode %v: round-trip got %v, err %v", m, got, err)
		}
	}
	for p := range fetchPolicyNames {
		got, err := ParseFetchPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("fetch policy %v: round-trip got %v, err %v", p, got, err)
		}
	}
}

// TestBuiltinKindsRegistered pins the deprecated constants to the
// registries: every constant this package exports must resolve to a
// registered kind, and the closed enums keep their exhaustive name tables.
func TestBuiltinKindsRegistered(t *testing.T) {
	for _, k := range []PredictorKind{PredGshare, PredBimodal, PredStatic, PredOracle, PredLocal, PredCombining, PredTage} {
		if _, ok := bpred.Registry.Lookup(string(k)); !ok {
			t.Errorf("predictor constant %q is not registered", k)
		}
	}
	for _, k := range []ConfidenceKind{ConfJRS, ConfOracle, ConfAlwaysHigh, ConfAlwaysLow, ConfAdaptive} {
		if _, ok := confidence.Registry.Lookup(string(k)); !ok {
			t.Errorf("confidence constant %q is not registered", k)
		}
	}
	if len(modeNames) != int(PolyPath)+1 {
		t.Errorf("modeNames has %d entries, enum has %d", len(modeNames), int(PolyPath)+1)
	}
	if len(fetchPolicyNames) != int(FetchRoundRobin)+1 {
		t.Errorf("fetchPolicyNames has %d entries, enum has %d", len(fetchPolicyNames), int(FetchRoundRobin)+1)
	}
}

func TestParseKindNormalizesSpelling(t *testing.T) {
	k, err := ParsePredictorKind("  GShare ")
	if err != nil || k != PredGshare {
		t.Fatalf("case/space-insensitive parse: got %v, err %v", k, err)
	}
}

// TestParseKindUnknownIsTypedAndDescriptive requires unknown-kind errors
// to enumerate the live registry contents — including kinds (like tage)
// added after the original closed enums — so the message can never drift
// from the accepted set.
func TestParseKindUnknownIsTypedAndDescriptive(t *testing.T) {
	_, err := ParseConfidenceKind("grapefruit")
	if err == nil {
		t.Fatal("expected error")
	}
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ConfigError, got %T", err)
	}
	if !strings.Contains(err.Error(), "jrs") || !strings.Contains(err.Error(), "adaptive") {
		t.Errorf("error should list valid spellings, got %q", err)
	}

	_, err = ParsePredictorKind("grapefruit")
	if err == nil {
		t.Fatal("expected error")
	}
	for _, want := range bpred.Registry.Kinds() {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("predictor error should list registered kind %q, got %q", want, err)
		}
	}
}
