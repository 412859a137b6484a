package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/workload"
)

// serve-mix parameters. The hot set is every (benchmark, model) pair of
// hotModels over the eight stand-ins; the memo holds fewer cells than
// that. Cold jobs each use an instruction count no other job uses, so each
// pays for generation, the reference run and simulation.
const (
	serveInsts     = 20_000
	serveMemoCells = 8
	// blockPattern is the order of job kinds in every run of ten jobs,
	// rotated by a seeded offset: M is a hot job on the memo set, S a hot
	// job on another hot cell, C a cold job. Every job puts one key at the
	// front of the memo (a store hit backfills it, a cold job writes it).
	// The M jobs take the memoSetCells memo-set cells in turn, so at most
	// five other keys come between two uses of one of them, fewer than
	// serveMemoCells: after its first use in a window, a memo-set cell is
	// served from the memo. The memo set moves on to the next cells every
	// memoWindow jobs, so every hot cell takes both roles equally often and
	// the mix of programs does not depend on the seed. The S jobs take the
	// hot cells in turn, skipping the current and the last memo set, so
	// more than serveMemoCells other keys come between two uses: they fall
	// through to the result store.
	blockPattern = "MSCMSMCSMC"
	memoSetCells = 2
	memoWindow   = 2 * len(blockPattern)
	// serveSLOms is the latency limit on a rung's job_ms tail.
	serveSLOms = 100.0
	// lagValidFrac marks a run invalid when the generator's lag tail
	// exceeds this share of the latency limit.
	lagValidFrac = 0.1
	// serveSetupRepeats is how many servers set-up starts; each warms the
	// whole hot set.
	serveSetupRepeats = 5
)

// serveRates is the fixed ladder of offered rates (jobs/s); the timed
// phase spends an equal share of its time on each rung, lowest first.
var serveRates = []float64{10, 20, 30}

var (
	hotModels = []string{"see", "monopath"}
	coldModel = "see"
)

// Job kinds, as in blockPattern.
const (
	kindMemo  = 'M'
	kindStore = 'S'
	kindCold  = 'C'
)

// plannedJob is one job of the open-loop schedule.
type plannedJob struct {
	kind  byte
	bench int
	model string
	insts uint64
	due   time.Duration // from the start of the phase
	rung  int
}

func (j plannedJob) hot() bool { return j.kind != kindCold }

// plan draws the phase's schedule from seed: evenly spaced sends at each
// rung's rate, with kinds in blockPattern's order. The seed picks the
// pattern's rotation, the order in which the hot cells join the memo set
// and take the S jobs, and the order in which cold jobs take the
// benchmarks, so every seed offers the same mix. coldBase is the last cold
// instruction count already used.
func plan(seed int64, seconds float64, rates []float64, coldBase uint64) []plannedJob {
	rng := rand.New(rand.NewSource(seed))
	hot := hotSet()
	memoOrder, storeOrder, coldOrder := rng.Perm(len(hot)), rng.Perm(len(hot)), rng.Perm(8)
	offset := rng.Intn(len(blockPattern))
	// memoCell is the k-th memo-set cell of window w.
	memoCell := func(w, k int) int { return memoOrder[(memoSetCells*w+k)%len(hot)] }
	inMemoSet := func(w, c int) bool {
		for k := 0; k < memoSetCells; k++ {
			if w >= 0 && memoCell(w, k) == c {
				return true
			}
		}
		return false
	}
	var jobs []plannedJob
	var memoJobs, storeJobs int
	rungLen := seconds / float64(len(rates))
	for ri, rate := range rates {
		n := int(math.Round(rate * rungLen))
		for i := 0; i < n; i++ {
			j := plannedJob{
				kind: blockPattern[(len(jobs)+offset)%len(blockPattern)],
				due:  time.Duration((float64(ri)*rungLen + float64(i)/rate) * float64(time.Second)),
				rung: ri,
			}
			w := len(jobs) / memoWindow
			c := 0
			switch j.kind {
			case kindMemo:
				c = memoCell(w, memoJobs%memoSetCells)
				memoJobs++
			case kindStore:
				for {
					c = storeOrder[storeJobs%len(hot)]
					storeJobs++
					if !inMemoSet(w, c) && !inMemoSet(w-1, c) {
						break
					}
				}
			default:
				coldBase++
				j.bench, j.model, j.insts = coldOrder[int(coldBase)%8], coldModel, coldBase
			}
			if j.hot() {
				j.bench, j.model, j.insts = hot[c].bench, hot[c].model, serveInsts
			}
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// clock is the time source of the open loop, faked in tests.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop calls send(i) for each job at start+dues[i], never earlier and
// regardless of whether earlier jobs have finished, and returns how late
// each send began. A slow send delays the ones after it; their lag, and
// the latency measured from their due time, show it.
func openLoop(clk clock, start time.Time, dues []time.Duration, send func(i int)) []time.Duration {
	lags := make([]time.Duration, len(dues))
	for i, d := range dues {
		due := start.Add(d)
		clk.SleepUntil(due)
		lags[i] = clk.Now().Sub(due)
		send(i)
	}
	return lags
}

// maxQueueDepth is the largest number of jobs submitted but not yet
// started at any submission instant.
func maxQueueDepth(submitted, started []time.Time) int {
	depth := 0
	for _, s := range submitted {
		n := 0
		for i, sub := range submitted {
			if !sub.After(s) && (started[i].IsZero() || started[i].After(s)) {
				n++
			}
		}
		depth = max(depth, n)
	}
	return depth
}

// serveEnv is one running polyserve instance and its HTTP client.
type serveEnv struct {
	srv    *server.Server
	hs     *httptest.Server
	client *http.Client
	dir    string
}

// startServer starts polyserve with its result store in a new directory
// under base.
func startServer(nproc int, base string) (*serveEnv, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "serve-store-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{StoreDir: dir, CacheCells: serveMemoCells, Log: log.New(io.Discard, "", 0)})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &serveEnv{
		srv: srv, hs: httptest.NewServer(srv.Handler()), dir: dir,
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc},
		},
	}, nil
}

func (s *serveEnv) stop() {
	s.hs.Close()
	s.client.CloseIdleConnections()
	_, _ = s.srv.Drain() // no journal: nothing to write
	os.RemoveAll(s.dir)
}

// request is the one-cell job for a benchmark of the seeded suite. The
// workload travels inline under a seed-qualified name, so no registered
// workload is touched.
func request(suite []workload.Benchmark, seed int64, bench int, model string, insts uint64) server.JobRequest {
	spec := suite[bench].Spec
	spec.Name = fmt.Sprintf("%s-s%d", spec.Name, seed)
	return server.JobRequest{
		Configs:    []server.ConfigEntry{{Name: model, Model: model}},
		Benchmarks: []string{spec.Name},
		Workloads:  []workload.Spec{spec},
		Insts:      insts,
	}
}

func (s *serveEnv) submit(req server.JobRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := s.client.Post(s.hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var j struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&j)
	_, _ = io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
	if err != nil {
		return "", fmt.Errorf("submit: HTTP %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, j.Error)
	}
	return j.ID, nil
}

func (s *serveEnv) result(id string) (server.JobResult, error) {
	var res server.JobResult
	resp, err := s.client.Get(s.hs.URL + "/v1/results/" + id)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return res, fmt.Errorf("result %s: HTTP %d: %s", id, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	err = json.NewDecoder(resp.Body).Decode(&res)
	_, _ = io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
	return res, err
}

// wait polls Server.Job until the job leaves the queue and the worker.
func (s *serveEnv) wait(id string, limit time.Duration) (server.Job, error) {
	deadline := time.Now().Add(limit)
	for {
		j, ok := s.srv.Job(id)
		if !ok {
			return j, fmt.Errorf("job %s unknown", id)
		}
		if j.Finished != nil {
			return j, nil
		}
		if time.Now().After(deadline) {
			return j, fmt.Errorf("job %s still %s after %s", id, j.State, limit)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// jobIPC reads the IPC of the single cell from a job's rendered table.
func jobIPC(text, bench string) (float64, error) {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == bench {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("no IPC row for %s in %q", bench, text)
}

type hotCell struct {
	bench int
	model string
}

// hotSet lists the hot cells of the eight benchmarks, in index order.
func hotSet() []hotCell {
	var hot []hotCell
	for b := 0; b < 8; b++ {
		for _, m := range hotModels {
			hot = append(hot, hotCell{b, m})
		}
	}
	return hot
}

func (h hotCell) index() int {
	for i, m := range hotModels {
		if m == h.model {
			return h.bench*len(hotModels) + i
		}
	}
	return -1
}

// runServe drives an in-process polyserve with an open loop over a fixed
// rate ladder.
func runServe(env *env) error {
	suite := seededSuite(env.seed, serveInsts)
	hot := hotSet()

	// Set-up starts the server and warms its hot set through the API: the
	// server generates each hot cell's program, runs its reference run and
	// simulates it, so later hot jobs are served from a cache tier.
	var se *serveEnv
	hotText := make([]string, len(hot))
	err := env.setup(serveSetupRepeats, func(rep int) error {
		if se != nil {
			se.stop()
		}
		var err error
		if se, err = startServer(env.nproc, filepath.Join(".bench_build", "tmp")); err != nil {
			return err
		}
		texts, err := se.warm(suite, env.seed, hot)
		if err != nil {
			return err
		}
		for i, text := range texts {
			if hotText[i] == "" {
				hotText[i] = text
			} else if text != hotText[i] {
				env.rep.fail("hot cell %d: set-up %d result differs from the first", i, rep)
			}
		}
		return nil
	})
	if se != nil {
		defer se.stop()
	}
	if err != nil {
		return err
	}

	// The set-up layers are timed on one stand-alone generation of the
	// suite, as inside the server they cannot be timed from outside. Its
	// programs also give the expected hot results, simulated locally: the
	// server's table must show the same IPC, and the digest covers their
	// exact counts.
	progs, err := prepare(env, "layers", suite, false)
	if err != nil {
		return err
	}
	reportModelCheck(env, progs)
	var local []cellRun
	for i, c := range hot {
		cfg, err := core.ModelConfig(c.model)
		if err != nil {
			return err
		}
		name := request(suite, env.seed, c.bench, c.model, serveInsts).Benchmarks[0]
		res, err := core.Run(progs[c.bench].prog, cfg)
		if err != nil {
			return fmt.Errorf("local reference %s/%s: %w", name, c.model, err)
		}
		local = append(local, cellRun{
			bench: name, model: c.model, gshare: cfg.Predictor.Kind == pipeline.PredGshare, stats: res.Stats,
		})
		ipc, err := jobIPC(hotText[i], name)
		if err != nil {
			return err
		}
		if got, want := fmt.Sprintf("%.3f", ipc), fmt.Sprintf("%.3f", res.IPC); got != want {
			env.rep.fail("hot cell %s/%s: server IPC %s, local simulation %s", name, c.model, got, want)
		}
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", passDigest(local))
	for _, text := range hotText {
		fmt.Fprintf(h, "%s\n", text)
	}
	env.rep.digest = hex.EncodeToString(h.Sum(nil))[:16]
	reportSim(env.rep, local)

	// Each hot job is checked against the set-up's result as it completes,
	// so the phases carry no digest of their own.
	loop := &serveLoop{env: env, se: se, suite: suite, hotText: hotText, coldBase: serveInsts}
	timedPhases(env, "", func(seconds float64, traced bool) phase {
		ph := loop.run(seconds, traced)
		return phase{instsPerSec: ph.instsPerSec(), rateSamples: ph.cold, jobMs: ph.jobMs, report: ph.report}
	})
	return nil
}

// warm runs every hot cell once, in order, and returns the result texts.
func (s *serveEnv) warm(suite []workload.Benchmark, seed int64, hot []hotCell) ([]string, error) {
	texts := make([]string, len(hot))
	for i, h := range hot {
		id, err := s.submit(request(suite, seed, h.bench, h.model, serveInsts))
		if err != nil {
			return nil, err
		}
		if j, err := s.wait(id, time.Minute); err != nil {
			return nil, err
		} else if j.State != server.JobDone {
			return nil, fmt.Errorf("warm-up job %s %s: %s", id, j.State, j.Error)
		}
		res, err := s.result(id)
		if err != nil {
			return nil, err
		}
		texts[i] = res.Text
	}
	return texts, nil
}

type serveLoop struct {
	env      *env
	se       *serveEnv
	suite    []workload.Benchmark
	hotText  []string
	coldBase uint64
	phases   int
}

// sentJob is one job the generator sent, with what the collector learns.
type sentJob struct {
	id        string
	err       error
	due       time.Time
	sendStart time.Time
	sendEnd   time.Time
	job       server.Job
	res       server.JobResult
	resStart  time.Time
	resEnd    time.Time
}

type servePhase struct {
	jobMs, submitMs, waitMs, hotMs, coldMs, resultMs, lagMs []float64
	coldInsts                                               uint64
	coldSecs, cpuSecs                                       float64
	cal                                                     calibration
	liveMB                                                  []float64
	cold                                                    int
	maxDepth                                                int
	memoHitRatio, storeHitRatio                             float64
	atSLO                                                   float64
	rungs                                                   []map[string]any
	valid                                                   bool
	gcFrac                                                  float64
}

// instsPerSec is the cold jobs' simulated instructions per second of
// service time. It is a ratio of sums, not a median: the cold jobs of the
// eight benchmarks form eight clusters of equal size, and a median would
// jump between two of them.
func (p *servePhase) instsPerSec() float64 { return float64(p.coldInsts) / p.coldSecs }

// instsPerCPUSec is the cold jobs' simulated instructions per CPU second
// the whole process spent in the phase, less the calibration units: the
// server serving every job, hot and cold, over HTTP, with the load
// generator beside it.
func (p *servePhase) instsPerCPUSec() float64 { return float64(p.coldInsts) / p.cpuSecs }

// run plays one open-loop phase: one goroutine sends on schedule, one
// collects completions (Server.Job) and fetches results over HTTP.
func (l *serveLoop) run(seconds float64, traced bool) *servePhase {
	env := l.env
	l.phases++
	phaseSeed := env.seed*31 + int64(l.phases)
	jobs := plan(phaseSeed, seconds, serveRates, l.coldBase)
	for _, j := range jobs {
		if !j.hot() {
			l.coldBase = j.insts
		}
	}
	dues := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		dues[i] = j.due
	}
	before := l.se.srv.Stats()
	cpu0, c0 := readCPU(), cpuTime()

	ph := &servePhase{}
	sent := make([]*sentJob, len(jobs))
	// One slot per planned job, so the sender never blocks on the
	// collector.
	ch := make(chan *sentJob, len(jobs))
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		l.collect(ch, &ph.cal)
	}()
	start := time.Now().Add(20 * time.Millisecond).Round(0)
	var live []float64
	lags := openLoop(realClock{}, start, dues, func(i int) {
		live = append(live, liveHeapMB())
		j := jobs[i]
		req := request(l.suite, env.seed, j.bench, j.model, j.insts)
		s := &sentJob{due: start.Add(j.due), sendStart: time.Now()}
		s.id, s.err = l.se.submit(req)
		s.sendEnd = time.Now()
		sent[i] = s
		ch <- s
	})
	close(ch)
	<-collected

	ph.gcFrac, ph.liveMB = readCPU().gcFrac(cpu0), live
	ph.cpuSecs = (cpuTime() - c0).Seconds() - sum(ph.cal.secs)
	after := l.se.srv.Stats()
	if after.StoreConflicts != 0 {
		env.rep.fail("result store reports %d write conflicts", after.StoreConflicts)
	}
	hits := after.CacheHits - before.CacheHits
	lookups := hits + after.CacheMisses - before.CacheMisses
	fromCache := after.CellsFromCache - before.CellsFromCache
	if lookups > 0 {
		ph.memoHitRatio = float64(hits) / float64(lookups)
		ph.storeHitRatio = float64(fromCache-hits) / float64(lookups)
	}

	type rungAcc struct {
		ms  []float64
		n   int
		bad int
	}
	rungs := make([]rungAcc, len(serveRates))
	var submitted, startedAt []time.Time
	for i, s := range sent {
		j := jobs[i]
		env.rep.attempted++
		ph.lagMs = append(ph.lagMs, ms(lags[i]))
		rungs[j.rung].n++
		if err := l.check(s, j); err != nil {
			env.rep.failed++
			rungs[j.rung].bad++
			env.rep.fail("job %d: %v", i, err)
			continue
		}
		lat := ms(s.job.Finished.Sub(s.due))
		ph.jobMs = append(ph.jobMs, lat)
		rungs[j.rung].ms = append(rungs[j.rung].ms, lat)
		ph.submitMs = append(ph.submitMs, ms(s.sendEnd.Sub(s.sendStart)))
		ph.waitMs = append(ph.waitMs, ms(s.job.Started.Sub(s.job.Submitted)))
		ph.resultMs = append(ph.resultMs, ms(s.resEnd.Sub(s.resStart)))
		svc := s.job.Finished.Sub(*s.job.Started)
		if j.hot() {
			ph.hotMs = append(ph.hotMs, ms(svc))
		} else {
			ph.cold++
			ph.coldMs = append(ph.coldMs, ms(svc))
			ph.coldInsts += s.res.SimInsts
			ph.coldSecs += svc.Seconds()
		}
		submitted = append(submitted, s.job.Submitted)
		startedAt = append(startedAt, *s.job.Started)
		if traced {
			l.trace(s)
		}
	}
	ph.maxDepth = maxQueueDepth(submitted, startedAt)

	// A rung meets the limit when its job_ms tail does, nothing failed,
	// and the backlog left at its end could drain within the limit.
	for ri, ra := range rungs {
		d := summarize(ra.ms)
		rungEnd := start.Add(time.Duration(float64(ri+1) * seconds / float64(len(serveRates)) * float64(time.Second)))
		backlog := 0
		for i, s := range sent {
			if jobs[i].rung == ri && s.err == nil && s.job.Finished != nil && s.job.Finished.After(rungEnd) {
				backlog++
			}
		}
		ok := ra.bad == 0 && d.N > 0 && d.Tail <= serveSLOms && float64(backlog) <= serveRates[ri]*serveSLOms/1000
		if ok {
			ph.atSLO = serveRates[ri]
		}
		ph.rungs = append(ph.rungs, map[string]any{
			"rate": serveRates[ri], "jobs": ra.n, "failed": ra.bad, "p50_ms": d.P50,
			"tail_ms": d.Tail, "tail_pct": d.TailPct, "backlog_at_end": backlog, "meets_slo": ok,
		})
	}
	ph.valid = summarize(ph.lagMs).Tail <= lagValidFrac*serveSLOms
	return ph
}

// collectGrace bounds how long the collector waits for jobs still
// unfinished when the last one has been sent; they then count as failed.
const collectGrace = 30 * time.Second

// serveCalEvery is how often the collector runs a calibration unit.
const serveCalEvery = 250 * time.Millisecond

// collect waits for every sent job to finish and fetches its result. It
// also runs a calibration unit every serveCalEvery.
func (l *serveLoop) collect(ch <-chan *sentJob, cal *calibration) {
	var pending []*sentJob
	open := true
	var giveUp, lastCal time.Time
	for open || len(pending) > 0 {
		if open {
			for more := true; more; {
				select {
				case s, ok := <-ch:
					if !ok {
						open, more = false, false
						giveUp = time.Now().Add(collectGrace)
						break
					}
					if s.err == nil {
						pending = append(pending, s)
					}
				default:
					more = false
				}
			}
		}
		keep := pending[:0]
		for _, s := range pending {
			j, ok := l.se.srv.Job(s.id)
			if !ok || j.Finished == nil {
				keep = append(keep, s)
				continue
			}
			s.job = j
			if j.State == server.JobDone {
				s.resStart = time.Now()
				s.res, s.err = l.se.result(s.id)
				s.resEnd = time.Now()
			} else {
				s.err = fmt.Errorf("job %s %s: %s", s.id, j.State, j.Error)
			}
		}
		pending = keep
		if !open && time.Now().After(giveUp) {
			for _, s := range pending {
				s.err = fmt.Errorf("job %s did not finish", s.id)
			}
			return
		}
		if time.Since(lastCal) >= serveCalEvery {
			cal.run()
			lastCal = time.Now()
		}
		if len(pending) > 0 || open {
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// check verifies one job's outcome: it finished, a hot job was served
// from a cache tier with the text of its first completion, and a cold job
// simulated its one cell.
func (l *serveLoop) check(s *sentJob, j plannedJob) error {
	if s == nil {
		return fmt.Errorf("never sent")
	}
	if s.err != nil {
		return s.err
	}
	if s.res.Cells != 1 {
		return fmt.Errorf("job %s: %d cells, want 1", s.id, s.res.Cells)
	}
	if j.hot() {
		h := hotCell{j.bench, j.model}.index()
		if s.res.CacheHits != 1 {
			return fmt.Errorf("hot job %s was simulated, not served from a cache tier", s.id)
		}
		if s.res.Text != l.hotText[h] {
			l.env.rep.fail("hot job %s: result text differs from the first completion", s.id)
		}
		return nil
	}
	if s.res.CacheHits != 0 || s.res.SimInsts == 0 {
		return fmt.Errorf("cold job %s: cache hits %d, sim insts %d", s.id, s.res.CacheHits, s.res.SimInsts)
	}
	name := request(l.suite, l.env.seed, j.bench, j.model, j.insts).Benchmarks[0]
	if ipc, err := jobIPC(s.res.Text, name); err != nil || ipc <= 0 {
		return fmt.Errorf("cold job %s: IPC %v, %v", s.id, ipc, err)
	}
	return nil
}

func (l *serveLoop) trace(s *sentJob) {
	tr, id := l.env.tr, s.id
	child := func(name string, lane int, a, b time.Time) {
		tr.add(span{Name: name, ID: id, Parent: "loadgen.job", ParentID: id, Lane: lane, Start: a, End: b})
	}
	tr.add(span{Name: "loadgen.job", ID: id, Start: s.due, End: s.resEnd})
	child("http.submit", 1, s.sendStart, s.sendEnd)
	child("server.queue", 3, s.job.Submitted, *s.job.Started)
	child("server.service", 3, *s.job.Started, *s.job.Finished)
	child("http.result", 2, s.resStart, s.resEnd)
}

func (ph *servePhase) report(env *env) {
	r := env.rep
	r.set("sim_insts_per_ref_s", float64(ph.coldInsts)/refSeconds(ph.cpuSecs, median(ph.cal.secs)), ph.cold)
	r.set("sim_insts_per_cpu_s", ph.instsPerCPUSec(), ph.cold)
	r.set("host.cal_ms", ph.cal.unitMs(), len(ph.cal.secs))
	r.set("sim_insts_per_s", ph.instsPerSec(), ph.cold)
	r.set("live_heap_mb", median(ph.liveMB), len(ph.liveMB))
	r.setDist("job_ms", summarize(ph.jobMs))
	r.setDist("server.submit_ms", summarize(ph.submitMs))
	r.setDist("server.queue_wait_ms", summarize(ph.waitMs))
	r.set("server.service_ms.hot.p50", median(ph.hotMs), len(ph.hotMs))
	r.setDist("server.service_ms.cold", summarize(ph.coldMs))
	r.set("server.result_ms.p50", median(ph.resultMs), len(ph.resultMs))
	r.set("server.max_queue_depth", float64(ph.maxDepth), len(ph.jobMs))
	r.set("cache.memo_hit_ratio", ph.memoHitRatio, len(ph.jobMs))
	r.set("server.store_hit_ratio", ph.storeHitRatio, len(ph.jobMs))
	r.setDist("loadgen.lag_ms", summarize(ph.lagMs))
	delete(r.metrics, "loadgen.lag_ms.p50")
	r.set("jobs_per_s_at_slo", ph.atSLO, len(ph.jobMs))
	r.set("pipeline.gc_cpu_frac", ph.gcFrac, 1)
	r.meta["rungs"] = ph.rungs
	r.meta["slo_ms"] = serveSLOms
	r.meta["valid"] = ph.valid
	if !ph.valid {
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: generator lag tail above %.0f%% of the %.0f ms limit\n", 100*lagValidFrac, serveSLOms)
	}
}
