package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// cellRun is one simulated cell of a cells-* or sweep-fig8 pass.
type cellRun struct {
	bench, model string
	gshare       bool // the model predicts with gshare
	stats        stats.Sim
}

// runCells is the closed loop of cells-see and cells-mono: one goroutine
// calls core.RunCell with one reused arena over every (benchmark, model)
// cell, pass after pass, until the time is up. Each benchmark program runs
// insts instructions. Every pass must reproduce the first pass's digest.
func runCells(env *env, models []string, insts uint64) error {
	cfgs := make([]pipeline.Config, len(models))
	for i, m := range models {
		c, err := core.ModelConfig(m)
		if err != nil {
			return err
		}
		cfgs[i] = c
	}
	suite := seededSuite(env.seed, insts)
	var progs []program
	var arena *pipeline.Arena
	err := env.setup(setupRepeats, func(rep int) error {
		var err error
		progs, err = prepare(env, fmt.Sprintf("setup%d", rep), suite, rep == setupRepeats-1)
		arena = pipeline.NewArena()
		return err
	})
	if err != nil {
		return err
	}

	reportModelCheck(env, progs)

	loop := &cellsLoop{env: env, progs: progs, models: models, cfgs: cfgs, arena: arena}
	// One untimed pass warms the arena and the host before timing.
	warm := loop.run(0, false)
	timedPhases(env, warm.digest, func(seconds float64, traced bool) phase {
		ph := loop.run(seconds, traced)
		return phase{
			digest: ph.digest, instsPerSec: ph.instsPerSec(), rateSamples: len(ph.passRates), jobMs: ph.passMs,
			report: ph.report,
		}
	})
	return nil
}

type cellsLoop struct {
	env    *env
	progs  []program
	models []string
	cfgs   []pipeline.Config
	arena  *pipeline.Arena
	pass   int
}

// cellsPhase accumulates one timed phase of the loop. A pass is the job
// of the cells-* workloads: its wall time is job_ms, and the medians of
// the passes' simulated instructions per CPU second and per wall second
// are sim_insts_per_cpu_s and sim_insts_per_s, so a burst of host noise
// moves one pass, not the run. A calibration unit follows every pass and
// converts its CPU time into reference seconds: the median of the passes'
// rates per reference second is sim_insts_per_ref_s.
type cellsPhase struct {
	models     []string
	committed  uint64
	cells      int
	passMs     []float64
	passRates  []float64
	cpuRates   []float64
	refRates   []float64
	cal        calibration
	liveMB     []float64
	byModel    map[string][]float64
	first      []cellRun // the first complete pass
	digest     string
	newUs      []float64
	verifyUs   []float64
	recycleUs  []float64
	runNs      float64
	cycles     uint64
	fetched    uint64
	mallocs    uint64
	allocBytes uint64
	gcFrac     float64
}

// instsPerSec is the median over the phase's passes of each pass's
// simulated instructions per second.
func (p *cellsPhase) instsPerSec() float64 { return median(p.passRates) }

func (l *cellsLoop) run(seconds float64, traced bool) *cellsPhase {
	env := l.env
	ph := &cellsPhase{models: l.models, byModel: make(map[string][]float64)}
	cpu0 := readCPU()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	// Whole passes only: the phase ends at the first pass boundary after
	// the deadline.
	for ph.first == nil || time.Now().Before(deadline) {
		l.pass++
		passStart, passCPU := time.Now(), cpuTime()
		var committed uint64
		pass := make([]cellRun, 0, len(l.progs)*len(l.models))
		for _, pr := range l.progs {
			for mi, model := range l.models {
				id := fmt.Sprintf("pass%d/%s/%s", l.pass, pr.bench.Spec.Name, model)
				env.rep.attempted++
				t0 := time.Now()
				var st stats.Sim
				var err error
				if traced {
					st, err = l.tracedCell(ph, id, pr, l.cfgs[mi])
				} else {
					var res *core.Result
					res, err = core.RunCell(context.Background(), pr.prog, l.cfgs[mi], nil, l.arena)
					if err == nil {
						st = res.Stats
					}
				}
				d := ms(time.Since(t0))
				if err != nil {
					env.rep.failed++
					env.rep.fail("%s: %v", id, err)
					continue
				}
				ph.cells++
				committed += st.Committed
				ph.byModel[model] = append(ph.byModel[model], d)
				pass = append(pass, cellRun{
					bench: pr.bench.Spec.Name, model: model,
					gshare: l.cfgs[mi].Predictor.Kind == pipeline.PredGshare, stats: st,
				})
			}
		}
		if len(pass) < len(l.progs)*len(l.models) {
			break // a cell failed: the run is already marked incorrect
		}
		passTime, cpu := time.Since(passStart), cpuTime()-passCPU
		ph.committed += committed
		ph.passMs = append(ph.passMs, ms(passTime))
		ph.passRates = append(ph.passRates, float64(committed)/passTime.Seconds())
		ph.cpuRates = append(ph.cpuRates, float64(committed)/cpu.Seconds())
		ph.liveMB = append(ph.liveMB, liveHeapMB())
		ph.refRates = append(ph.refRates, float64(committed)/refSeconds(cpu.Seconds(), ph.cal.run().Seconds()))
		if d := passDigest(pass); ph.first == nil {
			ph.first, ph.digest = pass, d
		} else if d != ph.digest {
			env.rep.fail("pass %d digest %s differs from first pass %s", l.pass, d, ph.digest)
		}
	}
	ph.gcFrac = readCPU().gcFrac(cpu0)
	return ph
}

// tracedCell is core.RunCell split into its public pipeline calls, each
// recorded as a span, with allocation counts taken around the whole cell.
func (l *cellsLoop) tracedCell(ph *cellsPhase, id string, pr program, cfg pipeline.Config) (stats.Sim, error) {
	tr := l.env.tr
	sub := func(name string, a, b time.Time) {
		tr.add(span{Name: name, ID: id, Parent: "core.RunCell", ParentID: id, Start: a, End: b})
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	m, err := pipeline.NewWithArena(pr.prog, cfg, l.arena)
	t1 := time.Now()
	sub("pipeline.NewWithArena", t0, t1)
	if err != nil {
		return stats.Sim{}, err
	}
	err = m.RunContext(context.Background())
	t2 := time.Now()
	sub("pipeline.RunContext", t1, t2)
	if err != nil {
		return stats.Sim{}, err
	}
	err = m.VerifyArchState()
	t3 := time.Now()
	sub("pipeline.VerifyArchState", t2, t3)
	if err != nil {
		return stats.Sim{}, fmt.Errorf("architectural state mismatch: %w", err)
	}
	st := m.Stats
	m.Recycle(l.arena)
	t4 := time.Now()
	sub("pipeline.Recycle", t3, t4)
	tr.add(span{Name: "core.RunCell", ID: id, Start: t0, End: t4})
	runtime.ReadMemStats(&m1)

	ph.newUs = append(ph.newUs, us(t1.Sub(t0)))
	ph.verifyUs = append(ph.verifyUs, us(t3.Sub(t2)))
	ph.recycleUs = append(ph.recycleUs, us(t4.Sub(t3)))
	ph.runNs += float64(t2.Sub(t1).Nanoseconds())
	ph.cycles += st.Cycles
	ph.fetched += st.Fetched
	ph.mallocs += m1.Mallocs - m0.Mallocs
	ph.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	return st, nil
}

func (ph *cellsPhase) report(env *env) {
	r := env.rep
	r.digest = ph.digest
	r.set("sim_insts_per_ref_s", median(ph.refRates), len(ph.refRates))
	r.set("sim_insts_per_cpu_s", median(ph.cpuRates), len(ph.cpuRates))
	r.set("host.cal_ms", ph.cal.unitMs(), len(ph.cal.secs))
	r.set("sim_insts_per_s", ph.instsPerSec(), len(ph.passRates))
	r.set("live_heap_mb", median(ph.liveMB), len(ph.liveMB))
	r.setDist("job_ms", summarize(ph.passMs))
	for _, m := range ph.models {
		r.setDist("core.cell_ms."+m, summarize(ph.byModel[m]))
	}
	r.set("pipeline.gc_cpu_frac", ph.gcFrac, 1)
	reportSim(r, ph.first)
	if len(ph.newUs) > 0 {
		kinst := float64(ph.committed) / 1000
		r.set("pipeline.new_us", median(ph.newUs), len(ph.newUs))
		r.set("pipeline.verify_us", median(ph.verifyUs), len(ph.verifyUs))
		r.set("pipeline.recycle_us", median(ph.recycleUs), len(ph.recycleUs))
		r.set("pipeline.ns_per_cycle", ph.runNs/float64(ph.cycles), ph.cells)
		r.set("pipeline.ns_per_fetched", ph.runNs/float64(ph.fetched), ph.cells)
		r.set("pipeline.allocs_per_kinst", float64(ph.mallocs)/kinst, ph.cells)
		r.set("pipeline.bytes_per_kinst", float64(ph.allocBytes)/kinst, ph.cells)
	}
}

// passDigest is the workload digest of one complete pass.
func passDigest(pass []cellRun) string {
	keys := make([]cellKey, len(pass))
	for i, c := range pass {
		keys[i] = cellKey{c.bench, c.model, c.stats.Cycles, c.stats.Committed, c.stats.Fetched, c.stats.Killed}
	}
	return digest(keys)
}

// reportSim reports the exact simulated metrics of one pass: the IPC
// aggregate, useful-over-attempted work, SEE activity, and predictor and
// estimator accuracy. They are identical on every run with the same seed.
func reportSim(r *report, pass []cellRun) {
	if len(pass) == 0 {
		return
	}
	var ipcs []float64
	var sum stats.Sim
	var pathCycles float64
	var gshareCells int
	var mispred, cond uint64
	for _, c := range pass {
		s := c.stats
		ipcs = append(ipcs, s.IPC())
		sum.Cycles += s.Cycles
		sum.Committed += s.Committed
		sum.Fetched += s.Fetched
		sum.Killed += s.Killed
		sum.Divergences += s.Divergences
		sum.LowConf += s.LowConf
		sum.LowConfMispred += s.LowConfMispred
		pathCycles += s.AvgPaths() * float64(s.Cycles)
		if c.gshare {
			gshareCells++
			mispred += s.Mispredicts
			cond += s.CondBranches
		}
	}
	n := len(pass)
	kinst := float64(sum.Committed) / 1000
	r.set("sim_ipc_hmean", stats.HarmonicMeanIPC(ipcs), n)
	r.set("pipeline.committed_per_fetched", float64(sum.Committed)/float64(sum.Fetched), n)
	r.set("pipeline.killed_per_kinst", float64(sum.Killed)/kinst, n)
	r.set("pipeline.divergences_per_kinst", float64(sum.Divergences)/kinst, n)
	r.set("pipeline.avg_live_paths", pathCycles/float64(sum.Cycles), n)
	if sum.LowConf > 0 {
		r.set("confidence.pvn", float64(sum.LowConfMispred)/float64(sum.LowConf), n)
	}
	if gshareCells > 0 {
		r.set("bpred.mispredict_rate", float64(mispred)/float64(cond), gshareCells)
	}
}

// reportModelCheck simulates each program once on the monopath gshare
// machine and reports bpred.mispredict_abs_err, the mean absolute
// difference between its misprediction rate and Table 1's. It is the
// model's only validation against the paper, which gives no per-benchmark
// IPC to compare with. It runs after set-up, on every workload.
func reportModelCheck(env *env, progs []program) {
	cfg := core.ConfigMonopath()
	var absErr float64
	for _, pr := range progs {
		res, err := core.Run(pr.prog, cfg)
		if err != nil {
			env.rep.fail("model check %s: %v", pr.bench.Spec.Name, err)
			return
		}
		absErr += math.Abs(res.Stats.MispredictRate() - pr.bench.PaperMispredict)
	}
	env.rep.set("bpred.mispredict_abs_err", absErr/float64(len(progs)), len(progs))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
