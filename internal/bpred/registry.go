package bpred

import "repro/internal/registry"

// Params carries a predictor's integer sizing parameters by name
// ("hist_bits", "tables", ...). A nil map and an empty map are equivalent:
// both mean "all defaults". Params is the open half of the registry
// contract — a new predictor declares its own parameter schema and the
// pipeline, wire format and CLIs carry the map opaquely.
type Params map[string]int

// Get returns the named parameter, or def when absent (nil maps included).
func (p Params) Get(name string, def int) int {
	if v, ok := p[name]; ok {
		return v
	}
	return def
}

// ParamSpec declares one parameter a predictor accepts.
type ParamSpec = registry.ParamSpec

// Env is the machine context handed to predictor factories. It carries the
// hooks a predictor may need from the pipeline without coupling the
// registry to the pipeline package.
type Env struct {
	// TargetOf resolves a conditional branch's pc to its target
	// instruction index (the static BTFNT predictor needs it). Nil when
	// the caller has no program, e.g. when sizing tables only.
	TargetOf func(pc int) int
}

// Entry describes one registered predictor kind: its canonical spelling,
// parameter schema, factory, and storage-accounting function. StateBytes
// must agree with the constructed predictor's StateBytes() for any
// normalized params — the equal-area figures rely on computing budgets
// without building machines.
type Entry struct {
	Kind   string
	Doc    string
	Params []ParamSpec
	New    func(p Params, env Env) (Predictor, error)
	// StateBytes returns the hardware budget in bytes for normalized
	// params. Entries with no table state may leave it nil (treated as 0).
	StateBytes func(p Params) int
}

// Registry holds every predictor kind, built-in or registered at runtime.
var Registry = registry.New("bpred", "predictor", func(e *Entry) registry.Meta {
	return registry.Meta{Kind: &e.Kind, Params: e.Params, Hooks: []registry.Hook{{Name: "New", Set: e.New != nil}}}
})

// NormalizeParams validates p against the kind's schema and returns the
// canonical parameter map (see registry.NormalizeParams): defaults filled,
// freshly allocated, nil when the schema is empty.
func NormalizeParams(kind string, p Params) (Params, error) {
	e, err := Registry.Get(kind)
	if err != nil {
		return nil, err
	}
	np, err := registry.NormalizeParams(e.Kind, "", e.Params, p)
	return Params(np), err
}

// Build normalizes p and constructs the predictor.
func Build(kind string, p Params, env Env) (Predictor, error) {
	np, err := NormalizeParams(kind, p)
	if err != nil {
		return nil, err
	}
	e, _ := Registry.Lookup(kind)
	return e.New(np, env)
}

// StateBytes normalizes p and returns the kind's hardware budget in bytes
// without constructing the predictor.
func StateBytes(kind string, p Params) (int, error) {
	np, err := NormalizeParams(kind, p)
	if err != nil {
		return 0, err
	}
	e, _ := Registry.Lookup(kind)
	if e.StateBytes == nil {
		return 0, nil
	}
	return e.StateBytes(np), nil
}
