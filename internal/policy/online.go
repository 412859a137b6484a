package policy

import "repro/internal/registry"

// onlineController is a deterministic bandit over the candidate set. Each
// epoch it attributes the completed epoch's IPC to the candidate that was
// acting, maintains an exponential moving average reward per candidate,
// and picks the next epoch's actor:
//
//   - on probe epochs (every explore_every-th epoch) it round-robins
//     through the candidates so every arm keeps a fresh reward estimate
//     (the deterministic stand-in for epsilon-greedy exploration);
//   - otherwise it runs the incumbent, which a challenger only displaces
//     by beating it with a hysteresis margin (avoiding thrash when two
//     candidates are within noise of each other).
//
// Two refinements make the bandit phase-aware rather than merely
// stationary:
//
//   - unseen-first probing: an arm with no reward estimate (at start, or
//     after a phase shift invalidates estimates) is probed before the
//     incumbent runs again, so fresh phases are surveyed immediately;
//   - shift detection (shift_milli > 0): the controller tracks an EMA of
//     the epoch misprediction rate, and when an epoch's rate jumps by more
//     than shift_milli/1000 from that EMA, it concludes the program
//     changed phase and discards every other arm's reward estimate — the
//     next epochs re-probe them instead of trusting stale rankings from
//     the previous phase.
//
// A VIFR-style fetch throttle rides on top: after vifr_epochs consecutive
// epochs whose low-confidence branch rate is at or above
// vifr_lowconf_milli/1000, the controller overlays a fetch-width cap of
// vifr_fetch onto whatever candidate it selected, releasing it the first
// epoch confidence recovers. All parameters are integers (fractions in
// milli-units) and the controller consumes no randomness or wall-clock,
// so runs are reproducible byte-for-byte.
type onlineController struct {
	candidates []Setting
	// parameters
	exploreEvery int
	hysteresis   float64 // fractional margin a challenger must clear
	emaAlpha     float64 // EMA weight of the newest epoch
	shift        float64 // misprediction-rate jump that signals a phase change (0 = off)
	vifrEpochs   int     // 0 disables the throttle
	vifrLowConf  float64
	vifrFetch    int
	// state
	reward     []float64
	seen       []bool
	active     int // candidate acting during the epoch now running
	incumbent  int
	emaMis     float64 // EMA of epoch misprediction rate (phase signature)
	emaMisInit bool
	lowStreak  int
	throttled  bool
}

func (c *onlineController) Initial() Setting {
	return c.candidates[c.active]
}

func (c *onlineController) Decide(st EpochStats) Setting {
	// Attribute the completed epoch's reward to whoever was acting.
	if !c.seen[c.active] {
		c.reward[c.active] = st.IPC
		c.seen[c.active] = true
	} else {
		c.reward[c.active] += c.emaAlpha * (st.IPC - c.reward[c.active])
	}

	// Phase-shift detection: a misprediction-rate jump means the program
	// entered a new phase, so reward estimates gathered in the old phase
	// no longer rank the arms. Keep only the acting arm's estimate (it
	// just measured the new phase) and re-probe the rest.
	if c.shift > 0 {
		if c.emaMisInit {
			d := st.MispredictRate - c.emaMis
			if d < 0 {
				d = -d
			}
			if d > c.shift {
				for i := range c.seen {
					if i != c.active {
						c.seen[i] = false
					}
				}
				c.emaMisInit = false // re-anchor the signature in the new phase
			}
		}
		if !c.emaMisInit {
			c.emaMis = st.MispredictRate
			c.emaMisInit = true
		} else {
			c.emaMis += c.emaAlpha * (st.MispredictRate - c.emaMis)
		}
	}

	// Promote a challenger only past the hysteresis margin.
	best := c.incumbent
	for i := range c.candidates {
		if c.seen[i] && c.reward[i] > c.reward[best] {
			best = i
		}
	}
	if best != c.incumbent && c.seen[c.incumbent] && c.reward[best] > c.reward[c.incumbent]*(1+c.hysteresis) {
		c.incumbent = best
	}
	if !c.seen[c.incumbent] && c.seen[best] {
		c.incumbent = best
	}

	// Pick the next epoch's actor: an unseen arm first (initial survey or
	// post-shift re-probe), then the periodic round-robin probe, else the
	// incumbent. Epoch indices are of the upcoming epoch.
	next := st.Epoch + 1
	c.active = c.incumbent
	probed := false
	for i := range c.candidates {
		if !c.seen[i] {
			c.active = i
			probed = true
			break
		}
	}
	if !probed && len(c.candidates) > 1 && next%c.exploreEvery == c.exploreEvery-1 {
		c.active = (next / c.exploreEvery) % len(c.candidates)
	}
	out := c.candidates[c.active]

	// VIFR-style throttle on sustained low confidence.
	if c.vifrEpochs > 0 {
		if st.LowConfRate >= c.vifrLowConf {
			c.lowStreak++
		} else {
			c.lowStreak = 0
		}
		c.throttled = c.lowStreak >= c.vifrEpochs
		if c.throttled && (out.FetchWidth == 0 || out.FetchWidth > c.vifrFetch) {
			out.FetchWidth = c.vifrFetch
		}
	}
	return out
}

func (c *onlineController) Reset() {
	for i := range c.reward {
		c.reward[i] = 0
		c.seen[i] = false
	}
	c.active = 0
	c.incumbent = 0
	c.emaMis = 0
	c.emaMisInit = false
	c.lowStreak = 0
	c.throttled = false
}

// onlineParams is the online controller's parameter schema; fractions
// travel in milli-units.
var onlineParams = []registry.ParamSpec{
	{Name: "explore_every", Doc: "probe one candidate every n-th epoch", Min: 2, Max: 1 << 16, Default: 8},
	{Name: "hysteresis_milli", Doc: "margin a challenger must beat the incumbent by", Min: 0, Max: 1000, Default: 50},
	{Name: "ema_milli", Doc: "EMA weight of the newest epoch", Min: 1, Max: 1000, Default: 300},
	{Name: "shift_milli", Doc: "mispredict-rate jump that signals a phase change (0 = off)", Min: 0, Max: 1000, Default: 0},
	{Name: "vifr_epochs", Doc: "low-confidence epochs before the fetch throttle (0 = off)", Min: 0, Max: 1 << 16, Default: 0},
	{Name: "vifr_lowconf_milli", Doc: "low-confidence branch rate that counts toward the throttle", Min: 0, Max: 1000, Default: 600},
	{Name: "vifr_fetch", Doc: "throttled fetch width", Min: 1, Max: 64, Default: 4},
}

func init() {
	Registry.MustRegister(Entry{
		Kind:   "online",
		Doc:    "deterministic bandit over the candidate set: EMA reward, round-robin probes, switch hysteresis, VIFR fetch throttle on sustained low confidence",
		Params: onlineParams,
		Normalize: func(s Spec) (Spec, error) {
			if len(s.Candidates) == 0 {
				return Spec{}, registry.Errorf("online", "Candidates", "online needs at least one candidate setting")
			}
			s, err := normalizeCommon("online", s)
			if err != nil {
				return Spec{}, err
			}
			s.Params, err = registry.NormalizeParams("online", "Params.", onlineParams, s.Params)
			return s, err
		},
		New: func(s Spec) (Controller, error) {
			milli := func(name string) float64 { return float64(s.Params[name]) / 1000 }
			return &onlineController{
				candidates:   s.Candidates,
				exploreEvery: s.Params["explore_every"],
				hysteresis:   milli("hysteresis_milli"),
				emaAlpha:     milli("ema_milli"),
				shift:        milli("shift_milli"),
				vifrEpochs:   s.Params["vifr_epochs"],
				vifrLowConf:  milli("vifr_lowconf_milli"),
				vifrFetch:    s.Params["vifr_fetch"],
				reward:       make([]float64, len(s.Candidates)),
				seen:         make([]bool, len(s.Candidates)),
			}, nil
		},
	})
}
