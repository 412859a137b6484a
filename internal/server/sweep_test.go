package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postSweep(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getSweep(t *testing.T, ts *httptest.Server, id string) Sweep {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get sweep %s: status %d", id, resp.StatusCode)
	}
	var sw Sweep
	if err := json.NewDecoder(resp.Body).Decode(&sw); err != nil {
		t.Fatal(err)
	}
	return sw
}

// submitSweepAndWait submits a sweep and polls until its job finishes.
func submitSweepAndWait(t *testing.T, ts *httptest.Server, body string) Sweep {
	t.Helper()
	resp, data := postSweep(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit sweep: status %d: %s", resp.StatusCode, data)
	}
	var sw Sweep
	if err := json.Unmarshal(data, &sw); err != nil {
		t.Fatal(err)
	}
	if want := "/v1/sweeps/" + sw.ID; resp.Header.Get("Location") != want {
		t.Fatalf("Location = %q, want %q", resp.Header.Get("Location"), want)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		got := getSweep(t, ts, sw.ID)
		if got.State != JobQueued && got.State != JobRunning {
			return got
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not finish within 60s", sw.ID)
	return Sweep{}
}

const batchSweepBody = `{
  "title": "sweep test (IPC)",
  "configs": [{"name":"monopath","model":"monopath"},{"name":"SEE","model":"see"}],
  "benchmarks": ["compress","gcc"],
  "insts": 3000,
  "parallelism": 4
}`

func TestSweepLifecycleAndCellStream(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheCells: 64})
	sw := submitSweepAndWait(t, ts, batchSweepBody)

	if sw.State != JobDone {
		t.Fatalf("sweep state = %s (error %q), want done", sw.State, sw.Error)
	}
	if sw.TotalCells != 4 {
		t.Fatalf("total_cells = %d, want 4 (2 benchmarks x 2 configs)", sw.TotalCells)
	}
	if sw.DoneCells != sw.TotalCells {
		t.Fatalf("done_cells = %d, want %d", sw.DoneCells, sw.TotalCells)
	}
	if sw.Parallelism != 4 {
		t.Fatalf("parallelism = %d, want 4", sw.Parallelism)
	}

	// Page through the cell stream with the after cursor, one cell at a
	// time, exactly as a live client would.
	var cells []SweepCell
	after := 0
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/sweeps/%s/cells?after=%d", ts.URL, sw.ID, after))
		if err != nil {
			t.Fatal(err)
		}
		var page sweepCellsPage
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		cells = append(cells, page.Cells...)
		if page.NextAfter == after {
			break
		}
		after = page.NextAfter
	}
	if len(cells) != 4 {
		t.Fatalf("cell stream has %d cells, want 4", len(cells))
	}
	seen := make(map[string]bool)
	for i, c := range cells {
		if c.Seq != i+1 {
			t.Fatalf("cells[%d].seq = %d, want %d", i, c.Seq, i+1)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate cell id %q in stream", c.ID)
		}
		seen[c.ID] = true
		if c.Shard < 0 || c.Shard >= sw.Parallelism {
			t.Fatalf("cell %s ran on shard %d, outside [0,%d)", c.ID, c.Shard, sw.Parallelism)
		}
	}
	for _, id := range []string{"compress/monopath", "compress/SEE", "gcc/monopath", "gcc/SEE"} {
		if !seen[id] {
			t.Fatalf("cell %q missing from stream (got %v)", id, cells)
		}
	}
}

// inlineV2Configs are two configs given as inline polypath/v2 documents:
// the TAGE machine (the open predictor registry through the wire format)
// and the fig-adaptive online-policy machine (the policy registry and the
// v2 policy field).
const inlineV2Configs = `{"name":"TAGE","config":{"schema":"polypath/v2","mode":"polypath","fetch_width":8,"rename_width":8,"commit_width":8,"front_end_stages":5,"window_size":256,"num_int_type0":4,"num_int_type1":4,"num_fp_add":4,"num_fp_mul":4,"num_mem_ports":4,"phys_regs":352,"checkpoints":64,"ctx_history_width":8,"max_paths":24,"max_divergences":0,"predictor":{"kind":"tage","params":{"base_bits":10,"idx_bits":5,"max_hist":64,"min_hist":4,"tables":4,"tag_bits":11}},"confidence":{"kind":"jrs","index_bits":11,"ctr_bits":1,"threshold":0,"enhanced_index":true,"adaptive_min_pvn":0,"adaptive_window":0},"fetch_policy":"exponential","enable_dcache":false,"dcache":{"sets":0,"ways":0,"line_words":0},"dcache_miss_latency":0,"enable_icache":false,"icache":{"sets":0,"ways":0,"line_words":0},"icache_miss_latency":0,"btb_bits":9,"ras_depth":16,"enable_mrc":false,"mrc_bits":8,"resolution_buses":0,"non_speculative_history":false,"max_insts":0}},
  {"name":"adaptive","config":{"schema":"polypath/v2","mode":"polypath","fetch_width":4,"rename_width":8,"commit_width":8,"front_end_stages":5,"window_size":256,"num_int_type0":4,"num_int_type1":4,"num_fp_add":4,"num_fp_mul":4,"num_mem_ports":4,"phys_regs":352,"checkpoints":64,"ctx_history_width":8,"max_paths":24,"max_divergences":0,"predictor":{"kind":"gshare","params":{"hist_bits":11}},"confidence":{"kind":"jrs","index_bits":11,"ctr_bits":1,"threshold":0,"enhanced_index":true,"adaptive_min_pvn":0,"adaptive_window":0},"fetch_policy":"exponential","enable_dcache":false,"dcache":{"sets":0,"ways":0,"line_words":0},"dcache_miss_latency":0,"enable_icache":false,"icache":{"sets":0,"ways":0,"line_words":0},"icache_miss_latency":0,"btb_bits":9,"ras_depth":16,"enable_mrc":false,"mrc_bits":8,"resolution_buses":0,"non_speculative_history":false,"max_insts":0,"policy":{"kind":"online","epoch_cycles":1024,"candidates":[{"conf_threshold":0,"max_divergences":0,"fetch_width":0},{"conf_threshold":0,"max_divergences":-1,"fetch_width":0}],"params":{"ema_milli":400,"explore_every":6,"hysteresis_milli":20,"shift_milli":120,"vifr_epochs":0,"vifr_fetch":4,"vifr_lowconf_milli":600}}}}`

// TestSweepResultMatchesJob pins the determinism contract end to end: a
// sweep sharded 4-wide renders the byte-identical table a sequential
// plain job produces for the same request, for configs named by model
// and for inline polypath/v2 documents alike.
func TestSweepResultMatchesJob(t *testing.T) {
	for _, tc := range []struct{ name, configs string }{
		{"models", `{"name":"monopath","model":"monopath"},{"name":"SEE","model":"see"}`},
		{"inline-v2", `{"name":"monopath","model":"monopath"},{"name":"SEE","model":"see"},` + inlineV2Configs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			request := func(extra string) string {
				return `{"title": "sweep test (IPC)", "configs": [` + tc.configs +
					`], "benchmarks": ["compress","gcc"], "insts": 3000` + extra + `}`
			}
			_, ts := newTestServer(t, Config{SimParallelism: 1})
			sw := submitSweepAndWait(t, ts, request(`, "parallelism": 4`))
			if sw.State != JobDone {
				t.Fatalf("sweep state = %s (error %q)", sw.State, sw.Error)
			}

			resp, err := http.Get(ts.URL + "/v1/sweeps/" + sw.ID + "/result")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("sweep result: status %d", resp.StatusCode)
			}
			var sweepRes JobResult
			if err := json.NewDecoder(resp.Body).Decode(&sweepRes); err != nil {
				t.Fatal(err)
			}

			j := submitAndWait(t, ts, request(""))
			if j.State != JobDone {
				t.Fatalf("job state = %s (error %q)", j.State, j.Error)
			}
			jobRes := getResult(t, ts, j.ID)
			for _, name := range []string{"monopath", "SEE", "TAGE", "adaptive"} {
				if strings.Contains(tc.configs, `"`+name+`"`) && !strings.Contains(sweepRes.Text, name) {
					t.Fatalf("sweep table has no %s column:\n%s", name, sweepRes.Text)
				}
			}
			if sweepRes.Text != jobRes.Text {
				t.Fatalf("sweep (parallelism 4) and sequential job rendered different tables:\n--- sweep ---\n%s\n--- job ---\n%s", sweepRes.Text, jobRes.Text)
			}
		})
	}
}

// TestSweepSharesMemoCache: resubmitting the same sweep replays every
// cell from the memo cache the plain jobs API uses.
func TestSweepSharesMemoCache(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheCells: 64})
	first := submitSweepAndWait(t, ts, batchSweepBody)
	if first.State != JobDone || first.CachedCells != 0 {
		t.Fatalf("first sweep: state %s, cached %d", first.State, first.CachedCells)
	}
	second := submitSweepAndWait(t, ts, batchSweepBody)
	if second.State != JobDone {
		t.Fatalf("second sweep state = %s (error %q)", second.State, second.Error)
	}
	if second.CachedCells != second.TotalCells {
		t.Fatalf("second sweep replayed %d/%d cells from cache, want all", second.CachedCells, second.TotalCells)
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body, want string
	}{
		{"no configs", `{"benchmarks":["compress"]}`, "at least one"},
		{"bad parallelism", `{"configs":[{"name":"x","model":"see"}],"parallelism":65}`, "out of [0,64]"},
		{"unknown field", `{"configs":[{"name":"x","model":"see"}],"experiment":"fig8"}`, "unknown field"},
		{"unknown benchmark", `{"configs":[{"name":"x","model":"see"}],"benchmarks":["doom"]}`, "unknown benchmark"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postSweep(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, data)
			}
			if !strings.Contains(string(data), tc.want) {
				t.Fatalf("error %s does not mention %q", data, tc.want)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/sweep-000099")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown sweep: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/sweeps/sweep-000099/cells")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown sweep cells: status %d, want 404", resp.StatusCode)
	}
}

func TestSweepStatsAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sw := submitSweepAndWait(t, ts, batchSweepBody)
	if sw.State != JobDone {
		t.Fatalf("sweep state = %s (error %q)", sw.State, sw.Error)
	}

	snap := s.Stats()
	if snap.SweepsSubmitted != 1 || snap.SweepsCompleted != 1 {
		t.Fatalf("sweeps submitted/completed = %d/%d, want 1/1", snap.SweepsSubmitted, snap.SweepsCompleted)
	}
	if snap.SweepCellsDone != uint64(sw.TotalCells) {
		t.Fatalf("sweep_cells_done = %d, want %d", snap.SweepCellsDone, sw.TotalCells)
	}
	if snap.SweepSerialSeconds <= 0 || snap.SweepWallSeconds <= 0 {
		t.Fatalf("sweep serial/wall = %v/%v, want both > 0", snap.SweepSerialSeconds, snap.SweepWallSeconds)
	}
	if snap.SweepSpeedup <= 0 {
		t.Fatalf("sweep_speedup = %v, want > 0", snap.SweepSpeedup)
	}
	if s.sweepInflight.Load() != 0 {
		t.Fatalf("cells in flight after completion = %d, want 0", s.sweepInflight.Load())
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"polyserve_sweep_cells_inflight 0",
		`polyserve_sweeps_total{state="submitted"} 1`,
		`polyserve_sweeps_total{state="completed"} 1`,
		"polyserve_sweep_cells_total 4",
		"polyserve_sweep_serial_seconds_total",
		"polyserve_sweep_wall_seconds_total",
		"polyserve_sweep_speedup",
		// At least one shard ran cells; which one wins the work race is
		// schedule-dependent, so only the family is asserted.
		`polyserve_sweep_shard_duration_seconds_bucket{shard="`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestSweepListOrder: GET /v1/sweeps returns snapshots in submission
// order.
func TestSweepListOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheCells: 64})
	a := submitSweepAndWait(t, ts, batchSweepBody)
	b := submitSweepAndWait(t, ts, batchSweepBody)
	resp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []Sweep
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != a.ID || list[1].ID != b.ID {
		t.Fatalf("sweep list %v, want [%s %s]", list, a.ID, b.ID)
	}
}
