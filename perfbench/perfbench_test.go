package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/pipeline"
)

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 3.25}, {50, 5.5}, {90, 9.1}, {100, 10},
	} {
		if got := quantile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := quantile(nil, 50); got != 0 {
		t.Errorf("no samples: got %v", got)
	}
}

// The tail is the highest ladder percentile with at least ten samples
// beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 98}, {500, 98}, {499, 95},
		{200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50},
		{19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v leaves fewer than %d samples beyond", c.n, p, minBeyond)
		}
	}
	// Too few samples for any tail: the median stands in and says so.
	d := summarize([]float64{3, 1, 2})
	if d.P50 != 2 || d.Tail != 2 || d.TailPct != 50 || d.N != 3 {
		t.Errorf("summarize(3 samples) = %+v", d)
	}
	// 1000 samples 1..1000: the tail is p99.
	s := make([]float64, 1000)
	for i := range s {
		s[len(s)-1-i] = float64(i + 1)
	}
	d = summarize(s)
	if d.TailPct != 99 || math.Abs(d.Tail-990.01) > 1e-9 || d.P50 != 500.5 {
		t.Errorf("summarize(1..1000) = %+v", d)
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"a", "job_ms.p50", "self_ms.pipeline.NewWithArena", "9x", strings.Repeat("a", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", ".a", "-a", "_a", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	seen := map[string]bool{}
	for _, l := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range l {
			if !validName(s.Name) || seen[s.Name] || s.Unit == "" {
				t.Errorf("metric %q: invalid, duplicate or without unit", s.Name)
			}
			seen[s.Name] = true
		}
	}
	for w := range workloads {
		if !validName(w) {
			t.Errorf("workload name %q invalid", w)
		}
	}
}

// BENCHMARK.json at the repository root must list exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q unknown", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// fakeClock advances only when the loop sleeps or a send takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopSendsOnScheduleAndCountsLag(t *testing.T) {
	start := time.Unix(1000, 0)
	dues := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 100 * time.Millisecond}
	for _, c := range []struct {
		cost   time.Duration
		lagsMs []int
	}{
		// Sends faster than the spacing: every job leaves on time.
		{5 * time.Millisecond, []int{0, 0, 0, 0, 0}},
		// A 15 ms send behind 10 ms spacing: each job leaves 5 ms later
		// than the last, until the gap before the fifth absorbs it.
		{15 * time.Millisecond, []int{0, 5, 10, 15, 0}},
	} {
		clk := &fakeClock{now: start}
		var sentAt []time.Time
		lags := openLoop(clk, start, dues, func(i int) {
			sentAt = append(sentAt, clk.now)
			clk.now = clk.now.Add(c.cost)
		})
		for i := range dues {
			if want := time.Duration(c.lagsMs[i]) * time.Millisecond; lags[i] != want {
				t.Errorf("cost %v: lag[%d] = %v, want %v", c.cost, i, lags[i], want)
			}
			if got := sentAt[i].Sub(start.Add(dues[i])); got != lags[i] || got < 0 {
				t.Errorf("cost %v: job %d reported lag %v, sent %v after due", c.cost, i, lags[i], got)
			}
		}
	}
}

func TestPlanIsSeededAndColdCountsAreUnique(t *testing.T) {
	a := plan(5, 3, []float64{10, 20}, 1000)
	b := plan(5, 3, []float64{10, 20}, 1000)
	if len(a) != 15+30 {
		t.Fatalf("plan has %d jobs, want 45", len(a))
	}
	diff := false
	for i, j := range plan(6, 3, []float64{10, 20}, 1000) {
		diff = diff || j != a[i]
	}
	if !diff {
		t.Error("seeds 5 and 6 drew the same plan")
	}
	seen := map[uint64]bool{}
	for i, j := range a {
		if j != b[i] {
			t.Fatalf("job %d differs between two plans from one seed", i)
		}
		if i > 0 && j.due < a[i-1].due {
			t.Errorf("job %d due before job %d", i, i-1)
		}
		if j.hot() {
			if j.insts != serveInsts {
				t.Errorf("hot job %d: insts %d", i, j.insts)
			}
			continue
		}
		if j.insts <= 1000 || seen[j.insts] {
			t.Errorf("cold job %d reuses instruction count %d", i, j.insts)
		}
		seen[j.insts] = true
	}
	// Every ten jobs hold four on the memo set, three on other hot cells
	// and three cold ones.
	for k := 0; k+10 <= len(a); k++ {
		n := map[byte]int{}
		for _, j := range a[k : k+10] {
			n[j.kind]++
		}
		if n[kindMemo] != 4 || n[kindStore] != 3 || n[kindCold] != 3 {
			t.Errorf("jobs %d..%d: kinds %v", k, k+9, n)
		}
	}
	// Replayed through an LRU of the server's memo size, in which every job
	// puts its key first, a memo-set job hits after its cell's first use in
	// the window and every other hot job misses, so both cache tiers serve
	// a fixed share. Over a whole phase every hot cell takes both roles.
	lru := cache.NewLRU[bool](serveMemoCells)
	lastMemoWindow := map[string]int{}
	roles := map[hotCell]map[byte]bool{}
	for i, j := range plan(5, 25, serveRates, 1000) {
		key := fmt.Sprint(j.bench, j.model, j.insts)
		_, hit := lru.Get(key)
		lru.Put(key, true)
		if !j.hot() {
			continue
		}
		w, ok := lastMemoWindow[key]
		switch {
		case j.kind == kindMemo && ok && w == i/memoWindow && !hit:
			t.Errorf("job %d: memo-set cell %s missed the memo", i, key)
		case j.kind == kindStore && hit:
			t.Errorf("job %d: cell %s hit the memo", i, key)
		}
		if j.kind == kindMemo {
			lastMemoWindow[key] = i / memoWindow
		}
		c := hotCell{j.bench, j.model}
		if roles[c] == nil {
			roles[c] = map[byte]bool{}
		}
		roles[c][j.kind] = true
	}
	for _, c := range hotSet() {
		if !roles[c][kindMemo] || !roles[c][kindStore] {
			t.Errorf("hot cell %v took roles %v", c, roles[c])
		}
	}
	if a[15].rung != 1 || a[15].due != 1500*time.Millisecond || a[16].due-a[15].due != 50*time.Millisecond {
		t.Errorf("second rung starts at %v with spacing %v", a[15].due, a[16].due-a[15].due)
	}
}

func TestMaxQueueDepth(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	sub := []time.Time{at(0), at(1), at(2), at(10)}
	start := []time.Time{at(0), at(5), at(6), at(10)}
	if got := maxQueueDepth(sub, start); got != 2 {
		t.Errorf("maxQueueDepth = %d, want 2", got)
	}
}

func TestDigestCoversEveryField(t *testing.T) {
	base := []cellKey{{"gcc", "see", 10, 20, 30, 5}, {"go", "eager", 1, 2, 3, 4}}
	d := digest(base)
	if d != digest(append([]cellKey(nil), base...)) {
		t.Fatal("digest not deterministic")
	}
	for i := 0; i < 6; i++ {
		c := append([]cellKey(nil), base...)
		switch i {
		case 0:
			c[0].Benchmark = "perl"
		case 1:
			c[0].Model = "eager"
		case 2:
			c[0].Cycles++
		case 3:
			c[0].Committed++
		case 4:
			c[0].Fetched++
		case 5:
			c[0].Killed++
		}
		if digest(c) == d {
			t.Errorf("changing field %d left the digest unchanged", i)
		}
	}
	if digest([]cellKey{base[1], base[0]}) == d {
		t.Error("digest ignores cell order")
	}
}

// A tiny cells run: two passes of core.RunCell reproduce one digest, and
// the traced pass, split into the pipeline calls, reproduces it too.
func TestCellsDigestStableOnTinyRun(t *testing.T) {
	e := &env{seed: 3, rep: newReport(), tr: newTracer()}
	suite := seededSuite(e.seed, 3000)[:2]
	progs, err := prepare(e, "t", suite, true)
	if err != nil {
		t.Fatal(err)
	}
	loop := &cellsLoop{env: e, progs: progs, models: []string{"see", "monopath"}}
	for _, m := range loop.models {
		cfg, err := core.ModelConfig(m)
		if err != nil {
			t.Fatal(err)
		}
		loop.cfgs = append(loop.cfgs, cfg)
	}
	loop.arena = pipeline.NewArena()
	first := loop.run(0, false)
	second := loop.run(0, false)
	traced := loop.run(0, true)
	if len(e.rep.failures) > 0 {
		t.Fatalf("failures: %v", e.rep.failures)
	}
	if first.digest == "" || first.digest != second.digest || first.digest != traced.digest {
		t.Errorf("digests %q, %q, traced %q", first.digest, second.digest, traced.digest)
	}
	if len(first.first) != 4 || e.rep.attempted != 12 {
		t.Errorf("%d cells in a pass, %d attempted", len(first.first), e.rep.attempted)
	}
	self := selfTimes(e.tr.spans)
	if self["pipeline.RunContext"] <= 0 || self["workload.Generate"] <= 0 {
		t.Errorf("self times %v", self)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "root", ID: "a", Start: at(0), End: at(100)},
		{Name: "kid", ID: "a", Parent: "root", ParentID: "a", Start: at(10), End: at(30)},
		{Name: "kid2", ID: "a", Parent: "root", ParentID: "a", Start: at(20), End: at(40)},
		{Name: "kid3", ID: "a", Parent: "root", ParentID: "a", Start: at(90), End: at(120)},
	}
	self := selfTimes(spans)
	if got := self["root"]; got != 60*time.Millisecond {
		t.Errorf("root self time %v, want 60ms", got)
	}
	if got := self["kid3"]; got != 30*time.Millisecond {
		t.Errorf("kid3 self time %v, want 30ms", got)
	}
}

// A short traced serve phase: one goroutine sends, one collects, the
// server runs jobs; every job checks out and leaves its spans.
func TestServePhaseTiny(t *testing.T) {
	e := &env{seed: 2, nproc: 2, rep: newReport(), tr: newTracer()}
	se, err := startServer(e.nproc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer se.stop()
	suite := seededSuite(e.seed, serveInsts)
	texts, err := se.warm(suite, e.seed, hotSet())
	if err != nil {
		t.Fatal(err)
	}
	loop := &serveLoop{env: e, se: se, suite: suite, hotText: texts, coldBase: serveInsts}
	ph := loop.run(0.6, true)
	if len(e.rep.failures) > 0 || e.rep.failed > 0 {
		t.Fatalf("failures: %v", e.rep.failures)
	}
	if e.rep.attempted != 12 || len(ph.jobMs) != 12 || ph.cold == 0 || len(ph.hotMs) == 0 {
		t.Errorf("attempted %d, completed %d, cold %d, hot %d", e.rep.attempted, len(ph.jobMs), ph.cold, len(ph.hotMs))
	}
	if ph.memoHitRatio <= 0 || ph.storeHitRatio <= 0 {
		t.Errorf("memo hit ratio %v, store hit ratio %v: both tiers should serve", ph.memoHitRatio, ph.storeHitRatio)
	}
	if got := len(e.tr.spans); got != 5*12 {
		t.Errorf("%d spans, want 5 per job", got)
	}
}

// One small sweep on two shards: the Observer and OnCell hooks run on
// worker goroutines.
func TestSweepTiny(t *testing.T) {
	e := &env{seed: 2, nproc: 2, rep: newReport(), tr: newTracer()}
	suite := seededSuite(e.seed, 3000)
	names := make([]string, len(suite))
	for i, b := range suite {
		names[i] = b.Spec.Name
	}
	ph := &sweepPhase{}
	ph.sweep(e, 1, true, suite, names, fig8())
	ph.sweep(e, 2, false, suite, names, fig8())
	if len(e.rep.failures) > 0 {
		t.Fatalf("failures: %v", e.rep.failures)
	}
	if ph.sweeps != 2 || len(ph.cellMs) != 96 || e.rep.attempted != 96 {
		t.Errorf("%d sweeps, %d cells timed, %d attempted", ph.sweeps, len(ph.cellMs), e.rep.attempted)
	}
	if busy := ph.busyFrac[0]; busy <= 0 || busy > 1 {
		t.Errorf("busy fraction %v", busy)
	}
	self := selfTimes(e.tr.spans)
	if self["harness.cell"] <= 0 || self["harness.RunConfigs"] <= 0 {
		t.Errorf("self times %v", self)
	}
}

// The calibration unit does fixed work and converts CPU seconds into
// reference seconds by its median time: a host twice as slow runs the
// unit twice as long and halves the seconds it reports.
func TestCalibrationConvertsToReferenceSeconds(t *testing.T) {
	var c calibration
	for i := 0; i < 3; i++ {
		if d := c.run(); d <= 0 {
			t.Fatalf("unit %d took %v of CPU time", i, d)
		}
	}
	if got := refSeconds(2, 0.02); math.Abs(got-1) > 1e-12 {
		t.Errorf("2 CPU s beside a 20 ms unit = %v reference s, want 1", got)
	}
	c.secs = []float64{0.02, 0.01, 0.03}
	if got := c.unitMs(); math.Abs(got-20) > 1e-9 {
		t.Errorf("unitMs = %v, want 20", got)
	}
}
