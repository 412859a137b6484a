package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricSpec names one reported metric and its unit. The two lists below
// are the benchmark's contract: BENCHMARK.json lists exactly these names
// (TestBenchmarkJSONMatchesSpecs keeps them in step).
type metricSpec struct{ Name, Unit string }

// endToEnd metrics are what a user of the simulator or the service sees.
// Every workload reports all of them, untraced. Times are CPU times in
// reference seconds (calib.go), so that neither a host that takes the
// processor away nor one that slows it moves them.
var endToEnd = []metricSpec{
	{"sim_insts_per_ref_s", "1/s"},
	{"sim_ipc_hmean", "IPC"},
	{"success_ratio", "ratio"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
}

// perLayer metrics come from the traced run. A layer a workload does not
// exercise reports 0. The wall-time throughput and job latency come first:
// they are what a user waits for, but on a shared host they spread more
// between runs than any bound an end-to-end metric may have.
var perLayer = []metricSpec{
	{"sim_insts_per_cpu_s", "1/s"},
	{"sim_insts_per_s", "1/s"},
	{"job_ms.p50", "ms"},
	{"job_ms.tail", "ms"},
	{"peak_rss_mb", "MB"},
	{"host.cal_ms", "ms"},
	{"error_rate", "ratio"},
	{"workload.generate_ms", "ms"},
	{"isa.reference_ms", "ms"},
	{"pipeline.new_us", "us"},
	{"pipeline.verify_us", "us"},
	{"pipeline.recycle_us", "us"},
	{"pipeline.ns_per_cycle", "ns"},
	{"pipeline.ns_per_fetched", "ns"},
	{"pipeline.allocs_per_kinst", "count"},
	{"pipeline.bytes_per_kinst", "B"},
	{"pipeline.gc_cpu_frac", "ratio"},
	{"pipeline.committed_per_fetched", "ratio"},
	{"pipeline.killed_per_kinst", "count"},
	{"pipeline.divergences_per_kinst", "count"},
	{"pipeline.avg_live_paths", "count"},
	{"bpred.mispredict_rate", "ratio"},
	{"bpred.mispredict_abs_err", "ratio"},
	{"confidence.pvn", "ratio"},
	{"core.cell_ms.see.p50", "ms"},
	{"core.cell_ms.see.tail", "ms"},
	{"core.cell_ms.eager.p50", "ms"},
	{"core.cell_ms.eager.tail", "ms"},
	{"core.cell_ms.monopath.p50", "ms"},
	{"core.cell_ms.monopath.tail", "ms"},
	{"core.cell_ms.oracle.p50", "ms"},
	{"core.cell_ms.oracle.tail", "ms"},
	{"harness.cell_ms.p50", "ms"},
	{"harness.cell_ms.tail", "ms"},
	{"sched.busy_frac", "ratio"},
	{"sched.imbalance", "ratio"},
	{"sched.tail_idle_s", "s"},
	{"server.submit_ms.p50", "ms"},
	{"server.submit_ms.tail", "ms"},
	{"server.queue_wait_ms.p50", "ms"},
	{"server.queue_wait_ms.tail", "ms"},
	{"server.service_ms.hot.p50", "ms"},
	{"server.service_ms.cold.p50", "ms"},
	{"server.service_ms.cold.tail", "ms"},
	{"server.result_ms.p50", "ms"},
	{"server.max_queue_depth", "count"},
	{"cache.memo_hit_ratio", "ratio"},
	{"server.store_hit_ratio", "ratio"},
	{"loadgen.lag_ms.tail", "ms"},
	{"jobs_per_s_at_slo", "1/s"},
	{"trace.spans", "count"},
	{"trace.overhead.sim_insts_per_s", "1/s"},
	{"trace.overhead.job_ms.p50", "ms"},
	{"self_ms.workload.Generate", "ms"},
	{"self_ms.isa.Trace", "ms"},
	{"self_ms.isa.TraceCached", "ms"},
	{"self_ms.core.RunCell", "ms"},
	{"self_ms.pipeline.NewWithArena", "ms"},
	{"self_ms.pipeline.RunContext", "ms"},
	{"self_ms.pipeline.VerifyArchState", "ms"},
	{"self_ms.pipeline.Recycle", "ms"},
	{"self_ms.harness.RunConfigs", "ms"},
	{"self_ms.sched.task", "ms"},
	{"self_ms.harness.cell", "ms"},
	{"self_ms.loadgen.job", "ms"},
	{"self_ms.http.submit", "ms"},
	{"self_ms.server.queue", "ms"},
	{"self_ms.server.service", "ms"},
	{"self_ms.http.result", "ms"},
}

// metric is one measured value with the number of samples it rests on.
type metric struct {
	Value float64
	Unit  string
	N     int
	Note  string
}

// report collects a run's metrics, checks and metadata.
type report struct {
	metrics   map[string]metric
	failures  []string
	attempted int
	failed    int
	digest    string
	meta      map[string]any
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), meta: make(map[string]any)}
}

// set records a metric, with the unit its spec gives it.
func (r *report) set(name string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: unitOf(name), N: n}
}

// setDist records name.p50 and name.tail from one timing distribution.
func (r *report) setDist(name string, d dist) {
	r.set(name+".p50", d.P50, d.N)
	r.metrics[name+".tail"] = metric{Value: d.Tail, Unit: unitOf(name + ".tail"), N: d.N, Note: fmt.Sprintf("p%g", d.TailPct)}
}

// fail records a failed output check: the run's outputs are not correct.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func unitOf(name string) string {
	for _, l := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range l {
			if s.Name == name {
				return s.Unit
			}
		}
	}
	return ""
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints every metric as a readable line, then the metadata, then
// the result object as the last line. Metrics of the listed set that the
// workload did not exercise print as 0.
func (r *report) write(w io.Writer, listed []metricSpec) error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	samples := make(map[string]int, len(names))
	for _, n := range names {
		m := r.metrics[n]
		note := ""
		if m.Note != "" {
			note = " (" + m.Note + ")"
		}
		fmt.Fprintf(w, "metric %-34s %14.6g %-6s n=%d%s\n", n, m.Value, m.Unit, m.N, note)
		samples[n] = m.N
	}
	absErr := "n/a (no monopath cell)"
	if m, ok := r.metrics["bpred.mispredict_abs_err"]; ok {
		absErr = fmt.Sprintf("%.4f", m.Value)
	}
	fmt.Fprintf(w, "model sim_ipc_hmean %.4f, bpred.mispredict_abs_err %s against Table 1; the repository holds no IPC reference, so this is the model's only validation\n",
		r.metrics["sim_ipc_hmean"].Value, absErr)
	fmt.Fprintf(w, "digest %s\n", r.digest)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	r.meta["samples"] = samples
	meta, err := json.Marshal(r.meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "meta %s\n", meta)

	res := result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(listed)),
	}
	for _, s := range listed {
		if !validName(s.Name) {
			return fmt.Errorf("metric name %q is not of the form %s", s.Name, metricName)
		}
		v := r.metrics[s.Name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.Name, v)
		}
		res.Metrics[s.Name] = jsonMetric{Value: v, Unit: s.Unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
