package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"sync/atomic"
	"time"

	"acr/internal/acrd"
	"acr/internal/core"
	"acr/internal/fleet"
)

// Ring jobs run a fixed lap count with a 5 ms checkpoint interval. One
// client drives them: with two, the jobs' timer-driven rounds starve each
// other's laps and throughput turned bimodal (16, 22 and 65 jobs/s over
// three 10 s runs on 2 vCPUs, two of them below one client's 22–24). A
// 2 ms interval does the same to a lone job in a few percent of runs.
const (
	jobIters      = 4000
	jobIntervalMs = 5
)

// fleetNodes covers the largest job: 2 replicas × 2 nodes.
const fleetNodes = 4

// acrdReplayShape approximates a daemon ring job's task state (an
// iteration counter and a couple of scalars) for the layer replay.
var acrdReplayShape = shape{nodes: 2, tasks: 2, floats: 2, hot: 2}

// daemon is one in-process acrd behind a loopback HTTP listener.
type daemon struct {
	srv    *acrd.Server
	hs     *http.Server
	url    string
	dir    string
	served chan error
}

func startDaemon(dir string, c *http.Client) (*daemon, error) {
	srv, err := acrd.New(acrd.Config{DataDir: dir, Fleet: fleet.Config{Nodes: fleetNodes}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), dir: dir, served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	var health struct {
		Status string `json:"status"`
	}
	err = call(c, http.MethodGet, d.url+"/healthz", nil, http.StatusOK, &health)
	if err == nil && health.Status != "ok" {
		err = fmt.Errorf("healthz: status %q", health.Status)
	}
	if err == nil {
		_, err = d.runJob(c, firstJob)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// firstJob is the smallest ring job; a daemon counts as set up once it
// has run one to a verified result. Health alone took about 1 ms, too
// little work to time repeatably.
var firstJob = acrd.SubmitRequest{Name: "first", Nodes: 1, Tasks: 1, Iters: jobIters, IntervalMs: jobIntervalMs, FlushEvery: 1}

func (d *daemon) close() {
	_ = d.hs.Close() // every job has settled; open keep-alive connections may go
	<-d.served
	d.srv.Close()
}

// jobSample is one job as its client saw it.
type jobSample struct {
	lat, submit, verify time.Duration
	nodes, tasks        int
	res                 fleet.JobResult
}

// jobSpec is job i's seeded shape: 1–2 nodes, 1–2 tasks, fixed laps,
// jobIntervalMs checkpoint interval, every epoch flushed.
func jobSpec(seed int64, i int64) acrd.SubmitRequest {
	rng := rand.New(rand.NewSource(seed<<20 + i))
	return acrd.SubmitRequest{
		Name:       fmt.Sprintf("bench-%d", i),
		Nodes:      1 + rng.Intn(2),
		Tasks:      1 + rng.Intn(2),
		Iters:      jobIters,
		Scheme:     "strong",
		Comparison: "checksum",
		IntervalMs: jobIntervalMs,
		FlushEvery: 1,
	}
}

// runJob submits one job, follows its progress stream to the terminal
// event, and verifies the result against the golden ring.
func (d *daemon) runJob(c *http.Client, spec acrd.SubmitRequest) (jobSample, error) {
	s := jobSample{nodes: spec.Nodes, tasks: spec.Tasks}
	body, err := json.Marshal(spec)
	if err != nil {
		return s, err
	}
	t0 := time.Now()
	var created struct {
		ID int `json:"id"`
	}
	if err := call(c, http.MethodPost, d.url+"/api/v1/jobs", body, http.StatusCreated, &created); err != nil {
		return s, fmt.Errorf("submit: %w", err)
	}
	s.submit = time.Since(t0)
	resp, err := c.Get(fmt.Sprintf("%s/api/v1/jobs/%d/progress?stream=1&interval_ms=1000", d.url, created.ID))
	if err != nil {
		return s, fmt.Errorf("job %d progress: %w", created.ID, err)
	}
	ev, err := readTerminal(resp.Body)
	s.lat = time.Since(t0)
	_, _ = io.Copy(io.Discard, resp.Body) // let the connection be reused
	resp.Body.Close()
	if err != nil {
		return s, fmt.Errorf("job %d progress: %w", created.ID, err)
	}
	if ev.State != "completed" || ev.Result == nil {
		return s, fmt.Errorf("job %d ended %s", created.ID, ev.State)
	}
	s.res = *ev.Result
	t1 := time.Now()
	var ver struct {
		OK     bool     `json:"ok"`
		Errors []string `json:"errors"`
	}
	if err := call(c, http.MethodGet, fmt.Sprintf("%s/api/v1/jobs/%d/verify", d.url, created.ID), nil, http.StatusOK, &ver); err != nil {
		return s, fmt.Errorf("job %d verify: %w", created.ID, err)
	}
	s.verify = time.Since(t1)
	if !ver.OK {
		return s, fmt.Errorf("job %d failed verify: %v", created.ID, ver.Errors)
	}
	return s, nil
}

// call makes one JSON request and decodes the reply.
func call(c *http.Client, method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(blob))
	}
	return json.Unmarshal(blob, out)
}

type jobWindow struct {
	jobs      []jobSample
	wall, cpu time.Duration
	errs      []error
}

func (w jobWindow) perSec() float64 { return float64(len(w.jobs)) / w.wall.Seconds() }

func (w jobWindow) pick(f func(jobSample) time.Duration) []float64 {
	out := make([]float64, len(w.jobs))
	for i, j := range w.jobs {
		out[i] = float64(f(j)) / 1e6
	}
	return out
}

// jobsPerDaemon bounds one daemon's life. A daemon keeps every job it
// has run (about 1.8 MB each, mostly mailboxes), so one serving a whole
// window grew to 300–900 MB and its garbage collector slowed it more the
// longer the run; a fresh daemon every jobsPerDaemon jobs keeps the
// process small and every run's history alike. Replacing a daemon
// (closing it, collecting its garbage, starting the next) is not timed.
const jobsPerDaemon = 50

// acrdEnv is the daemon the client talks to, replaced every jobsPerDaemon
// jobs, and the journal accounting of the daemons retired so far.
type acrdEnv struct {
	c      *http.Client
	tmp    string
	d      *daemon
	lives  int // daemons started, set-up ones included
	served int // jobs the current daemon ran, its first job included

	journalJobs, journalRecords int
	journalBytes                int64
}

// retire closes the current daemon and books its journal.
func (e *acrdEnv) retire() error {
	e.d.close()
	records, size, err := journalSize(e.d.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	e.journalJobs += e.served
	e.journalRecords += records
	e.journalBytes += size
	return nil
}

func (e *acrdEnv) start() (*daemon, error) {
	d, err := startDaemon(filepath.Join(e.tmp, fmt.Sprintf("acrd-%d", e.lives)), e.c)
	e.lives++
	return d, err
}

// jobWindow runs the closed loop: one client submitting its next job only
// after the previous one verified, for the window (see inWindow). The
// window's time is the time spent on jobs.
func (e *acrdEnv) jobWindow(dur time.Duration, seed int64, next *atomic.Int64) jobWindow {
	var w jobWindow
	for inWindow(w.wall, dur, len(w.jobs)) {
		if e.served >= jobsPerDaemon {
			err := e.retire()
			stdruntime.GC()
			if err == nil {
				e.d, err = e.start()
				e.served = 1
			}
			if err != nil {
				w.errs = append(w.errs, fmt.Errorf("replace daemon: %w", err))
				return w
			}
		}
		t0, c0 := time.Now(), cpuTime()
		s, err := e.d.runJob(e.c, jobSpec(seed, next.Add(1)-1))
		w.wall += time.Since(t0)
		w.cpu += cpuTime() - c0
		e.served++
		if err != nil {
			w.errs = append(w.errs, err)
		} else {
			w.jobs = append(w.jobs, s)
		}
	}
	return w
}

// journalSize counts the daemon journal's records and bytes.
func journalSize(dir string) (records int, size int64, err error) {
	f, err := os.Open(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), maxEvent)
	for sc.Scan() {
		records++
		size += int64(len(sc.Bytes())) + 1
	}
	return records, size, sc.Err()
}

func runAcrdJobs(rc runConfig) (*outcome, error) {
	o := &outcome{traced: rc.trace}
	c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer c.CloseIdleConnections()
	e := &acrdEnv{c: c, tmp: rc.tmp}
	d, setups, err := setUp(func(int) (*daemon, error) { return e.start() }, func(d *daemon) { d.close() })
	if err != nil {
		return o, err
	}
	e.d, e.served = d, 1
	var next atomic.Int64
	var base, w jobWindow
	if rc.trace {
		base = e.jobWindow(rc.window()/2, rc.seed, &next)
		w = e.jobWindow(rc.window()/2, rc.seed, &next)
	} else {
		w = e.jobWindow(rc.window(), rc.seed, &next)
		base = w
	}
	errs := w.errs
	o.attempted = len(w.jobs) + len(w.errs)
	if rc.trace {
		errs = append(errs, base.errs...)
		o.attempted += len(base.jobs) + len(base.errs)
	}
	if err := e.retire(); err != nil {
		errs = append(errs, err)
	}
	o.failed = len(errs)
	if len(errs) > 0 {
		return o, fmt.Errorf("%w: %d of %d jobs failed, first: %v", errIncorrect, o.failed, o.attempted, errs[0])
	}
	verified := len(w.jobs)
	if rc.trace {
		verified += len(base.jobs)
	}
	o.notef("oracle: %d jobs completed and passed GET /verify (golden ring, both replicas, bit for bit)", verified)

	if err := o.setupMetric(setups); err != nil {
		return o, err
	}
	o.e2e("jobs_per_s", "", "1/s", base.perSec(), len(base.jobs))
	lat := base.pick(func(s jobSample) time.Duration { return s.lat })
	if err := o.pct("job_ms_p50", "", lat, 0.5); err != nil {
		return o, err
	}
	if err := o.pct("job_ms_p90", "", lat, 0.9); err != nil {
		return o, err
	}
	// The client's pause: the daemon journals (fsync) and admits the job
	// before POST returns.
	if err := o.pct("submit_ms_p50", "", base.pick(func(s jobSample) time.Duration { return s.submit }), 0.5); err != nil {
		return o, err
	}
	var pauses []float64
	for _, j := range base.jobs {
		pauses = append(pauses, ms(j.res.Stats.BlockedTimes)...)
	}
	if err := o.pct("job_ckpt_pause_ms_p50", "", pauses, 0.5); err != nil {
		return o, err
	}
	o.e2e("cpu_ms_per_job", "cpu_ms_per_op", "ms", float64(base.cpu)/1e6/float64(len(base.jobs)), len(base.jobs))
	o.rssMetric()
	o.e2e("failed_frac", "", "fraction", ratio(float64(o.failed), float64(o.attempted)), o.attempted)
	if !rc.trace {
		return o, nil
	}

	o.layer("trace.overhead_pct", "%", 100*(base.perSec()-w.perSec())/base.perSec(), len(w.jobs))
	var sum core.Stats
	var diskPuts float64
	for _, j := range w.jobs {
		addStats(&sum, j.res.Stats)
		diskPuts += float64(j.res.Stats.FlushedEpochs * 2 * j.nodes * j.tasks)
	}
	rounds := float64(sum.Checkpoints)
	o.statsLayers(sum, rounds)
	o.layer("core.sdc_detected_frac", "fraction", 0, 0)
	o.layer("ckptstore.disk_puts_per_round", "count", ratio(diskPuts, rounds), sum.Checkpoints)
	o.jobLayers(&jobAccount{jobs: len(w.jobs), checkpoints: sum.Checkpoints, journalJobs: e.journalJobs, journalRecords: e.journalRecords, journalBytes: e.journalBytes})
	o.optionalPct("acrd.submit_ms_p50", w.pick(func(s jobSample) time.Duration { return s.submit }), 0.5)
	o.optionalPct("acrd.verify_ms_p50", w.pick(func(s jobSample) time.Duration { return s.verify }), 0.5)
	o.optionalPct("fleet.queue_wait_ms_p50", w.pick(func(s jobSample) time.Duration { return s.res.QueueWait }), 0.5)
	rp, err := replay(acrdReplayShape, core.ChecksumCompare, rc.seed)
	if err != nil {
		return o, err
	}
	rp.record(o)
	return o, nil
}
