package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

const (
	// sweepInsts is the dynamic length of every sweep-fig8 benchmark
	// program.
	sweepInsts = 30_000
	// sweepSetupRepeats is how many warm-up sweeps set-up runs.
	sweepSetupRepeats = 5
)

// fig8 is the Figure 8 configuration matrix, in the paper's legend order.
func fig8() []harness.NamedConfig {
	return []harness.NamedConfig{
		{Name: "monopath", Cfg: core.ConfigMonopath()},
		{Name: "oracle", Cfg: core.ConfigOracleBP()},
		{Name: "gshare/oracle", Cfg: core.ConfigSEEOracleCE()},
		{Name: "gshare/JRS", Cfg: core.ConfigSEE()},
		{Name: "gshare/oracle/dual", Cfg: core.ConfigDualPathOracleCE()},
		{Name: "gshare/JRS/dual", Cfg: core.ConfigDualPath()},
	}
}

// shardClock is the scheduler's view of one sweep, fed by the harness's
// Observer hook: busy time and last completion per shard.
type shardClock struct {
	mu       sync.Mutex
	tr       *tracer
	sweepID  string
	started  map[string]time.Time
	busy     []time.Duration
	lastDone []time.Time
}

func (s *shardClock) TaskStarted(shard int, id string) {
	s.mu.Lock()
	s.started[id] = time.Now()
	s.mu.Unlock()
}

func (s *shardClock) TaskDone(shard int, id string, elapsed time.Duration, err error) {
	now := time.Now()
	s.mu.Lock()
	start := s.started[id]
	s.busy[shard] += elapsed
	s.lastDone[shard] = now
	s.mu.Unlock()
	s.tr.add(span{Name: "sched.task", ID: s.sweepID + "/" + id, Parent: "harness.RunConfigs", ParentID: s.sweepID,
		Lane: shard + 1, Start: start, End: now})
}

// runSweep runs the Figure 8 matrix through harness.RunConfigs at
// parallelism nproc, sweep after sweep, as cmd/experiments runs it. Every
// sweep generates its programs and runs their reference runs itself, so
// set-up is what precedes the timed sweeps: warm-up sweeps, timed as
// setup_s. Every sweep must reproduce the first warm-up sweep's digest.
func runSweep(env *env) error {
	suite := seededSuite(env.seed, sweepInsts)
	names := make([]string, len(suite))
	for i, b := range suite {
		names[i] = b.Spec.Name
	}
	configs := fig8()

	sweeps := 0
	run := func(seconds float64, traced bool) *sweepPhase {
		ph := &sweepPhase{cal: &calibration{}}
		cpu0 := readCPU()
		start := time.Now()
		for n := 0; n == 0 || time.Since(start).Seconds() < seconds; n++ {
			sweeps++
			ph.sweep(env, sweeps, traced, suite, names, configs)
		}
		ph.gcFrac = readCPU().gcFrac(cpu0)
		return ph
	}
	var warm string
	err := env.setup(sweepSetupRepeats, func(rep int) error {
		sweeps++
		ph := &sweepPhase{}
		ph.sweep(env, sweeps, false, suite, names, configs)
		if d := ph.digest; rep == 0 {
			warm = d
		} else if d != warm {
			env.rep.fail("warm-up sweep %d digest %s differs from the first's %s", rep, d, warm)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The set-up layers are timed on one stand-alone generation of the
	// suite: inside RunConfigs they cannot be timed from outside.
	progs, err := prepare(env, "layers", suite, false)
	if err != nil {
		return err
	}
	reportModelCheck(env, progs)

	timedPhases(env, warm, func(seconds float64, traced bool) phase {
		ph := run(seconds, traced)
		return phase{
			digest: ph.digest, instsPerSec: ph.instsPerSec(), rateSamples: ph.sweeps, jobMs: ph.sweepMs,
			report: ph.report,
		}
	})
	return nil
}

// sweepPhase accumulates one timed phase. A sweep is the job of
// sweep-fig8; sim_insts_per_cpu_s and sim_insts_per_s are the medians of
// the sweeps' rates per CPU second (of both shards together) and per wall
// second; sim_insts_per_ref_s that of the rates per reference second, by
// the calibration unit that follows every timed sweep.
type sweepPhase struct {
	sweeps    int
	sweepMs   []float64
	rates     []float64
	cpuRates  []float64
	refRates  []float64
	cal       *calibration // nil in set-up
	liveMB    []float64
	cellMs    []float64
	first     []cellRun
	digest    string
	busyFrac  []float64
	imbalance []float64
	tailIdle  []float64
	gcFrac    float64
}

func (p *sweepPhase) instsPerSec() float64 { return median(p.rates) }

// sweep runs one RunConfigs call and folds it into the phase.
func (ph *sweepPhase) sweep(env *env, n int, traced bool, suite []workload.Benchmark, names []string, configs []harness.NamedConfig) {
	sweepID := fmt.Sprintf("sweep%d", n)
	var tr *tracer
	if traced {
		tr = env.tr
	}
	clock := &shardClock{
		tr: tr, sweepID: sweepID, started: make(map[string]time.Time),
		busy: make([]time.Duration, env.nproc), lastDone: make([]time.Time, env.nproc),
	}
	var mu sync.Mutex
	var cellMs []float64
	// TargetInsts stays 0: the suite's specs carry their lengths.
	opts := harness.Options{
		Parallelism: env.nproc,
		Benchmarks:  names,
		Extra:       suite,
		Observer:    clock,
		OnCell: func(ev harness.CellEvent) {
			now := time.Now()
			mu.Lock()
			cellMs = append(cellMs, ms(ev.Elapsed))
			mu.Unlock()
			id := sweepID + "/" + harness.CellID(ev.Benchmark, ev.Config, ev.Replicate)
			tr.add(span{Name: "harness.cell", ID: id, Parent: "sched.task", ParentID: id,
				Lane: ev.Shard + 1, Start: now.Add(-ev.Elapsed), End: now})
		},
	}
	cells := len(names) * len(configs)
	env.rep.attempted += cells
	t0, c0 := time.Now(), cpuTime()
	mat, err := harness.RunConfigs(opts, configs)
	t1, cpu := time.Now(), cpuTime()-c0
	tr.add(span{Name: "harness.RunConfigs", ID: sweepID, Start: t0, End: t1})
	if err != nil {
		env.rep.failed += cells
		env.rep.fail("%s: %v", sweepID, err)
		return
	}
	ph.sweeps++
	ph.sweepMs = append(ph.sweepMs, ms(t1.Sub(t0)))
	ph.cellMs = append(ph.cellMs, cellMs...)

	var committed uint64
	pass := make([]cellRun, 0, cells)
	for _, b := range suite {
		for _, nc := range configs {
			c := mat.Cell(b.Spec.Name, nc.Name)
			if c == nil {
				env.rep.failed++
				env.rep.fail("%s: cell %s/%s missing", sweepID, b.Spec.Name, nc.Name)
				continue
			}
			committed += c.Stats.Committed
			pass = append(pass, cellRun{
				bench: b.Spec.Name, model: nc.Name,
				gshare: nc.Cfg.Predictor.Kind == pipeline.PredGshare, stats: c.Stats,
			})
		}
	}
	ph.rates = append(ph.rates, float64(committed)/t1.Sub(t0).Seconds())
	ph.cpuRates = append(ph.cpuRates, float64(committed)/cpu.Seconds())
	ph.liveMB = append(ph.liveMB, liveHeapMB())
	if ph.cal != nil {
		ph.refRates = append(ph.refRates, float64(committed)/refSeconds(cpu.Seconds(), ph.cal.run().Seconds()))
	}
	d := passDigest(pass)
	if ph.first == nil {
		ph.first, ph.digest = pass, d
	} else if d != ph.digest {
		env.rep.fail("%s digest %s differs from the first sweep's %s", sweepID, d, ph.digest)
	}

	var busy, maxBusy time.Duration
	first, last := clock.lastDone[0], clock.lastDone[0]
	for i, b := range clock.busy {
		busy += b
		maxBusy = max(maxBusy, b)
		if clock.lastDone[i].Before(first) {
			first = clock.lastDone[i]
		}
		if clock.lastDone[i].After(last) {
			last = clock.lastDone[i]
		}
	}
	mean := busy / time.Duration(len(clock.busy))
	ph.busyFrac = append(ph.busyFrac, busy.Seconds()/(float64(len(clock.busy))*t1.Sub(t0).Seconds()))
	if mean > 0 {
		ph.imbalance = append(ph.imbalance, maxBusy.Seconds()/mean.Seconds())
	}
	ph.tailIdle = append(ph.tailIdle, last.Sub(first).Seconds())
}

func (ph *sweepPhase) report(env *env) {
	r := env.rep
	r.digest = ph.digest
	r.set("sim_insts_per_ref_s", median(ph.refRates), ph.sweeps)
	r.set("sim_insts_per_cpu_s", median(ph.cpuRates), ph.sweeps)
	r.set("host.cal_ms", ph.cal.unitMs(), len(ph.cal.secs))
	r.set("sim_insts_per_s", ph.instsPerSec(), ph.sweeps)
	r.set("live_heap_mb", median(ph.liveMB), len(ph.liveMB))
	r.setDist("job_ms", summarize(ph.sweepMs))
	r.setDist("harness.cell_ms", summarize(ph.cellMs))
	r.set("sched.busy_frac", median(ph.busyFrac), len(ph.busyFrac))
	r.set("sched.imbalance", median(ph.imbalance), len(ph.imbalance))
	r.set("sched.tail_idle_s", median(ph.tailIdle), len(ph.tailIdle))
	r.set("pipeline.gc_cpu_frac", ph.gcFrac, 1)
	reportSim(r, ph.first)
	if ph.first == nil {
		r.fail("no complete sweep in the timed phase")
	}
}
