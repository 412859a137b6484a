// Package policy implements phase-aware dynamic SEE policy control: an
// interval-driven controller framework in which a pluggable Controller
// observes per-epoch pipeline feedback (IPC, misprediction rate, PVN,
// low-confidence rate, live-path occupancy) and actuates the machine's
// eagerness knobs — confidence threshold, divergence budget, fetch-rate
// throttle — at epoch boundaries only.
//
// The framework closes the loop the paper's Sec. 5.1 "lesson learned"
// opens: a fixed SEE policy loses on workloads whose branch behaviour
// changes by phase (the m88ksim PVN anomaly), so the policy itself must be
// selected at runtime. Three controller families ship built in:
//
//   - static: pins one candidate setting for the whole run (any existing
//     fixed policy, expressed in the controller framework);
//   - oracle: replays a precomputed per-epoch schedule, the upper bound a
//     two-pass experiment derives from exhaustive static replay;
//   - online: deterministic bandit-style selection over a candidate set
//     with an EMA reward, round-robin probing, switch hysteresis, and a
//     VIFR-style fetch throttle on sustained low confidence (Variable
//     Instruction Fetch Rate, arXiv 1707.04657).
//
// Like internal/bpred and internal/confidence, the controller set is an
// open internal/registry: a kind registered anywhere (built-in or at runtime) is
// immediately usable by the pipeline config, the wire format, and every
// front end.
package policy

// Setting is one actuation point of the controller: the knob values the
// pipeline applies at an epoch boundary. The zero value means "leave every
// knob at its configured value" — a controller that always returns the
// zero Setting is observationally inert.
type Setting struct {
	// ConfThreshold overrides the confidence estimator's high-confidence
	// threshold: 0 keeps the configured threshold, n > 0 sets threshold n,
	// and -1 selects counter saturation (the JRS default). Estimators that
	// do not support threshold actuation ignore it.
	ConfThreshold int `json:"conf_threshold"`
	// MaxDivergences overrides the divergence budget: 0 keeps the
	// configured cap, n > 0 caps simultaneous divergences at n, and -1
	// disables divergence entirely (monopath behaviour) without touching
	// the estimator.
	MaxDivergences int `json:"max_divergences"`
	// FetchWidth caps the front end's aggregate fetch bandwidth: 0 keeps
	// the configured width, n > 0 fetches at most n instructions per cycle
	// (the VIFR-style throttle).
	FetchWidth int `json:"fetch_width"`
}

// EpochStats is the per-epoch feedback fed to a Controller at each epoch
// boundary: deltas over the just-completed epoch, never cumulative run
// totals, so a controller sees the machine's current phase rather than its
// history-diluted average.
type EpochStats struct {
	// Epoch is the index of the completed epoch, starting at 0.
	Epoch int
	// Cycles and Committed are the epoch's cycle and instruction deltas.
	// The final epoch of a run may be shorter than the epoch length.
	Cycles    uint64
	Committed uint64
	// IPC is Committed/Cycles for this epoch.
	IPC float64
	// Branch-behaviour deltas, counted at commit (correct path only).
	CondBranches   uint64
	Mispredicts    uint64
	LowConf        uint64
	LowConfMispred uint64
	// MispredictRate is Mispredicts/CondBranches for this epoch.
	MispredictRate float64
	// PVN is LowConfMispred/LowConf for this epoch: the paper's "most
	// important design parameter" for SEE, measured per phase.
	PVN float64
	// LowConfRate is LowConf/CondBranches for this epoch (the trigger for
	// VIFR-style fetch throttling on sustained low confidence).
	LowConfRate float64
	// AvgLivePaths is the mean live-path occupancy over the epoch's cycles.
	AvgLivePaths float64
}

// Controller selects the machine's eagerness policy per epoch. The
// pipeline calls Initial once before cycle 0, then Decide at every epoch
// boundary with the completed epoch's stats; the returned Setting takes
// effect for the next epoch. Controllers must be deterministic: the same
// stats sequence must produce the same setting sequence (no wall-clock, no
// RNG), or the harness's byte-identical-output contract breaks.
type Controller interface {
	// Initial returns the setting for epoch 0.
	Initial() Setting
	// Decide consumes the completed epoch's stats and returns the setting
	// for the next epoch.
	Decide(st EpochStats) Setting
	// Reset returns the controller to its initial state.
	Reset()
}

// Preset names the candidate settings the built-in experiments and CLIs
// use, so a candidate set can be spelled "see,monopath,dual,throttle"
// instead of as raw Setting literals.
var presets = map[string]Setting{
	// see: the configured machine unchanged (full selective eager
	// execution as configured).
	"see": {},
	// monopath: divergence disabled; the machine follows every prediction.
	"monopath": {MaxDivergences: -1},
	// dual: the Sec. 5.2 dual-path restriction (one divergence in flight).
	"dual": {MaxDivergences: 1},
	// throttle: divergence off plus a half-width fetch throttle — the
	// VIFR-style low-confidence survival setting.
	"throttle": {MaxDivergences: -1, FetchWidth: 4},
}

// PresetSetting resolves a named candidate setting ("see", "monopath",
// "dual", "throttle").
func PresetSetting(name string) (Setting, bool) {
	s, ok := presets[name]
	return s, ok
}

// PresetNames returns the named candidate settings, in presentation order.
func PresetNames() []string { return []string{"see", "monopath", "dual", "throttle"} }
