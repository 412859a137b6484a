// Package registry is the one mechanism behind the simulator's open kind
// sets. Direction predictors (internal/bpred), confidence estimators
// (internal/confidence) and policy controllers (internal/policy) each keep
// a Registry of their own Entry type; the registry canonicalizes kind
// spellings, rejects malformed registrations up front, and owns the
// integer-parameter schema, its normalizer and the typed error every
// validation failure carries.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Canonical returns the canonical spelling of a kind: trimmed, lower case.
func Canonical(kind string) string { return strings.ToLower(strings.TrimSpace(kind)) }

// Error reports a spec field or parameter that violates a registered
// kind's constraints. Callers map Field into their own namespace (the
// pipeline prefixes it with the config group, e.g. "Predictor.").
type Error struct {
	Kind   string
	Field  string
	Reason string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s: %s", e.Kind, e.Field, e.Reason)
}

// Errorf builds an *Error with a formatted reason.
func Errorf(kind, field, format string, args ...any) *Error {
	return &Error{Kind: kind, Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Meta is what a Registry reads from an entry to validate it.
type Meta struct {
	// Kind points at the entry's kind field; Register canonicalizes it in
	// place, so looked-up entries carry the canonical spelling.
	Kind *string
	// Params is the entry's fixed parameter schema (nil when it has none).
	Params []ParamSpec
	// Hooks lists the entry's required function fields, factory first.
	Hooks []Hook
}

// Hook names one required function field of an entry and whether it is set.
type Hook struct {
	Name string
	Set  bool
}

// Registry is a concurrency-safe set of entries keyed by canonical kind.
// Kinds are never silently replaced: duplicate registrations are errors.
type Registry[E any] struct {
	name string // error prefix, e.g. "bpred"
	noun string // what a kind names, e.g. "predictor"
	meta func(*E) Meta

	mu      sync.RWMutex
	entries map[string]E
}

// New returns an empty registry. name prefixes its errors, noun names what
// a kind selects ("predictor kind ..."), and meta exposes an entry's kind,
// schema and hooks for validation.
func New[E any](name, noun string, meta func(*E) Meta) *Registry[E] {
	return &Registry[E]{name: name, noun: noun, meta: meta, entries: make(map[string]E)}
}

// Register adds an entry. It rejects an empty kind, a missing hook, a
// malformed parameter schema, and a kind already registered under any
// spelling.
func (r *Registry[E]) Register(e E) error {
	m := r.meta(&e)
	*m.Kind = Canonical(*m.Kind)
	kind := *m.Kind
	if kind == "" {
		return fmt.Errorf("%s: register: empty kind", r.name)
	}
	for _, h := range m.Hooks {
		if !h.Set {
			return fmt.Errorf("%s: register %q: missing %s hook", r.name, kind, h.Name)
		}
	}
	if err := checkSchema(m.Params); err != nil {
		return fmt.Errorf("%s: register %q: %v", r.name, kind, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[kind]; dup {
		return fmt.Errorf("%s: register %q: already registered", r.name, kind)
	}
	r.entries[kind] = e
	return nil
}

// MustRegister is Register for init-time built-ins; it panics on error.
func (r *Registry[E]) MustRegister(e E) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Lookup returns the entry for a kind under any spelling.
func (r *Registry[E]) Lookup(kind string) (E, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[Canonical(kind)]
	return e, ok
}

// Get is Lookup with an *Error on field "Kind" for an unknown kind, listing
// the registered kinds.
func (r *Registry[E]) Get(kind string) (E, error) {
	e, ok := r.Lookup(kind)
	if !ok {
		return e, Errorf(kind, "Kind", "unknown %s kind %q (registered: %s)", r.noun, kind, strings.Join(r.Kinds(), ", "))
	}
	return e, nil
}

// Kinds returns the registered kinds, sorted.
func (r *Registry[E]) Kinds() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for k := range r.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ParamSpec declares one integer parameter a kind accepts: its name, the
// accepted range, whether it is required, and the default filled in when
// it is optional and absent.
type ParamSpec struct {
	Name     string
	Doc      string
	Min, Max int
	Default  int
	Required bool
}

// HasParam reports whether schema declares the named parameter.
func HasParam(schema []ParamSpec, name string) bool {
	for _, ps := range schema {
		if ps.Name == name {
			return true
		}
	}
	return false
}

func checkSchema(schema []ParamSpec) error {
	seen := make(map[string]bool, len(schema))
	for _, ps := range schema {
		if ps.Name == "" || seen[ps.Name] {
			return fmt.Errorf("duplicate or empty parameter name %q", ps.Name)
		}
		seen[ps.Name] = true
		if ps.Min > ps.Max {
			return fmt.Errorf("parameter %q has empty range [%d,%d]", ps.Name, ps.Min, ps.Max)
		}
		if !ps.Required && (ps.Default < ps.Min || ps.Default > ps.Max) {
			return fmt.Errorf("parameter %q default %d out of [%d,%d]", ps.Name, ps.Default, ps.Min, ps.Max)
		}
	}
	return nil
}

// NormalizeParams validates p against schema and returns the canonical
// parameter map: names outside the schema are errors, required parameters
// must be present, values must lie in range, and optional absent
// parameters take their defaults. Unknown names are checked first in
// sorted order, then the schema in declaration order, so the reported
// error never depends on map iteration. Errors name the parameter
// prefix+name. The result is freshly allocated, never an alias of p, and
// nil for an empty schema.
func NormalizeParams(kind, prefix string, schema []ParamSpec, p map[string]int) (map[string]int, error) {
	accepted := make([]string, len(schema))
	for i, ps := range schema {
		accepted[i] = ps.Name
	}
	sort.Strings(accepted)
	for _, name := range SortedNames(p, nil) {
		if i := sort.SearchStrings(accepted, name); i == len(accepted) || accepted[i] != name {
			return nil, Errorf(kind, prefix+name, "unknown parameter (accepted: %s)", strings.Join(accepted, ", "))
		}
	}
	var out map[string]int
	for _, ps := range schema {
		v, ok := p[ps.Name]
		if !ok {
			if ps.Required {
				return nil, Errorf(kind, prefix+ps.Name, "required, range [%d,%d]", ps.Min, ps.Max)
			}
			v = ps.Default
		}
		if v < ps.Min || v > ps.Max {
			return nil, Errorf(kind, prefix+ps.Name, "%d out of [%d,%d]", v, ps.Min, ps.Max)
		}
		if out == nil {
			out = make(map[string]int, len(schema))
		}
		out[ps.Name] = v
	}
	return out, nil
}

// SortedNames returns the names in p that keep selects (all when keep is
// nil), sorted.
func SortedNames(p map[string]int, keep func(string) bool) []string {
	var names []string
	for name := range p {
		if keep == nil || keep(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// CloneParams returns an independent copy of p, nil when p is empty.
func CloneParams(p map[string]int) map[string]int {
	if len(p) == 0 {
		return nil
	}
	q := make(map[string]int, len(p))
	for k, v := range p {
		q[k] = v
	}
	return q
}
