// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator's public packages for a fixed time,
// checks the simulated outputs, and prints every metric by name with its
// unit. The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics; untraced runs report the
// end-to-end metrics, traced runs (--trace 1) the per-layer ones.
//
//	go run . --workload cells-see --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and the traced mode.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) error{
	"cells-see":  func(e *env) error { return runCells(e, []string{"see", "eager"}, 25_000) },
	"cells-mono": func(e *env) error { return runCells(e, []string{"monopath", "oracle"}, 50_000) },
	"sweep-fig8": runSweep,
	"serve-mix":  runServe,
}

// defaultSeed is the seed a run uses without --seed. heldOutSeed is never
// used while tuning the benchmark or a change; a claimed gain must also
// hold on it.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// env is the state one run shares across its phases.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	nproc    int
	tr       *tracer
	rep      *report
	// Per-call timings of the set-up layers.
	generateMs, referenceMs []float64
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 11

// setup runs fn n times (rep counts up from 0; the last repetition's
// state is the one the timed phase uses) and reports the median CPU time
// of a repetition, in reference seconds, as setup_s, and its median wall
// time in the metadata. A calibration unit follows each repetition.
func (e *env) setup(n int, fn func(rep int) error) error {
	var cpuSecs, wallSecs []float64
	var cal calibration
	for rep := 0; rep < n; rep++ {
		// Each repetition starts from a collected heap, so it neither
		// pays for the last one's garbage nor stacks its own on top of it
		// in peak_rss_mb.
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		if err := fn(rep); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		cpuSecs = append(cpuSecs, (cpuTime() - c0).Seconds())
		wallSecs = append(wallSecs, time.Since(t0).Seconds())
		cal.run()
	}
	// A repetition takes a few tens of milliseconds, about as long as a
	// unit, and single units vary by a third: the medians are compared.
	e.rep.set("setup_s", refSeconds(median(cpuSecs), median(cal.secs)), len(cpuSecs))
	e.rep.meta["setup_wall_s"] = median(wallSecs)
	return nil
}

// phase is what one timed phase of a workload yields.
type phase struct {
	digest      string  // the workload digest of the phase's cells
	instsPerSec float64 // per second of wall time
	rateSamples int     // samples behind instsPerSec
	jobMs       []float64
	report      func(*env)
}

// timedPhases runs a workload's measurement after set-up and warm-up.
// Untraced, it runs one phase of env.seconds and reports it. Traced, it
// runs an untraced phase of half the length as the baseline, then the
// traced phase, reports the traced one and the overhead of tracing. Every
// phase must reproduce want, the digest of the warm-up.
func timedPhases(env *env, want string, run func(seconds float64, traced bool) phase) {
	check := func(name string, p phase) {
		if p.digest != want {
			env.rep.fail("%s digest %s differs from the warm-up's %s", name, p.digest, want)
		}
	}
	if !env.trace {
		p := run(env.seconds, false)
		check("timed", p)
		p.report(env)
		return
	}
	base := run(env.seconds/2, false)
	traced := run(env.seconds, true)
	check("untraced", base)
	check("traced", traced)
	traced.report(env)
	env.rep.set("trace.overhead.sim_insts_per_s", traced.instsPerSec-base.instsPerSec, traced.rateSamples)
	env.rep.set("trace.overhead.job_ms.p50", median(traced.jobMs)-median(base.jobMs), len(traced.jobMs))
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run (cells-see, cells-mono, sweep-fig8, serve-mix)")
		seed    = flag.Int64("seed", defaultSeed, "seed of every generated input")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		traceOn = flag.Int("trace", 0, "1 records spans, writes them to .bench_build/traces and reports the per-layer metrics")
	)
	flag.Parse()
	runWorkload, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (valid: %s)", *name, strings.Join(names, ", "))
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	e := &env{
		workload: *name, seed: *seed, seconds: *seconds, trace: *traceOn == 1,
		nproc: runtime.NumCPU(), rep: newReport(),
	}
	if e.trace {
		e.tr = newTracer()
	}
	e.rep.meta["workload"] = e.workload
	e.rep.meta["seed"] = e.seed
	e.rep.meta["held_out_seed"] = heldOutSeed
	e.rep.meta["seconds"] = e.seconds
	e.rep.meta["trace"] = *traceOn
	e.rep.meta["nproc"] = e.nproc
	e.rep.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	e.rep.meta["go"] = runtime.Version()
	e.rep.meta["commit"] = commit()
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		e.workload, e.seed, e.seconds, *traceOn, e.nproc, runtime.GOMAXPROCS(0), runtime.Version(), e.rep.meta["commit"])

	if err := runWorkload(e); err != nil {
		return err
	}

	r := e.rep
	r.set("peak_rss_mb", peakRSSMB(), 1)
	r.set("success_ratio", 1-float64(r.failed)/float64(max(r.attempted, 1)), r.attempted)
	r.set("error_rate", float64(r.failed)/float64(max(r.attempted, 1)), r.attempted)
	r.set("workload.generate_ms", median(e.generateMs), len(e.generateMs))
	r.set("isa.reference_ms", median(e.referenceMs), len(e.referenceMs))
	listed := endToEnd
	if e.trace {
		listed = perLayer
		r.set("trace.spans", float64(len(e.tr.spans)), len(e.tr.spans))
		for name, d := range selfTimes(e.tr.spans) {
			r.set("self_ms."+name, ms(d), 1)
		}
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.json", e.workload, e.seed))
		if err := e.tr.writeChrome(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		r.meta["trace_file"] = path
	}
	return r.write(os.Stdout, listed)
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

// liveHeapMB is the heap the last garbage collection found live: what
// the process retains, without the garbage that the collector's pacing
// lets accumulate between collections, which moves the resident set from
// run to run.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTime is the CPU time the process has used so far, user and system,
// on all its threads. The kernel leaves out the time the process was
// runnable but not running: waits in the run queue and, on a virtual
// machine, time the host gave the processor to another guest (steal).
// On a shared host it therefore varies far less between runs than wall
// time does.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSample is the runtime's cumulative CPU-time accounting.
type cpuSample struct{ gc, total float64 }

func readCPU() cpuSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// gcFrac is the share of the process's CPU time spent in the garbage
// collector since before.
func (c cpuSample) gcFrac(before cpuSample) float64 {
	if c.total <= before.total {
		return 0
	}
	return (c.gc - before.gc) / (c.total - before.total)
}
