package policy

import "repro/internal/registry"

// staticController pins a single candidate setting for the whole run. It
// exists so every pre-existing fixed policy can be expressed inside the
// controller framework — the degenerate case the metamorphic tests pin
// against plain (policy-free) configs.
type staticController struct {
	setting Setting
}

func (c *staticController) Initial() Setting          { return c.setting }
func (c *staticController) Decide(EpochStats) Setting { return c.setting }
func (c *staticController) Reset()                    {}

func init() {
	Registry.MustRegister(Entry{
		Kind: "static",
		Doc:  "pin one candidate setting for the whole run (fixed policy expressed in the controller framework)",
		Normalize: func(s Spec) (Spec, error) {
			if len(s.Candidates) == 0 {
				s.Candidates = []Setting{{}}
			}
			if len(s.Candidates) != 1 {
				return Spec{}, registry.Errorf("static", "Candidates", "static takes exactly one candidate setting")
			}
			s, err := normalizeCommon("static", s)
			if err != nil {
				return Spec{}, err
			}
			s.Params, err = registry.NormalizeParams("static", "Params.", nil, s.Params)
			return s, err
		},
		New: func(s Spec) (Controller, error) {
			return &staticController{setting: s.Candidates[0]}, nil
		},
	})
}
