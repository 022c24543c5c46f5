package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mpisim/internal/apps"
	"mpisim/internal/machine"
	"mpisim/internal/svc"
)

// daemon_mix runs an in-process svc.Server with its default options
// (journal fsync on) on loopback. Two clients in a closed loop each
// submit their next job only after fetching the previous job's
// artifact. Every pass starts a fresh server in a fresh data
// directory, so its cache hits come only from repeats within the pass.

const (
	daemonClients = 2
	// pollInterval is the job-state polling period of the repository's
	// own client, simdctl wait. The queue-wait and run figures come
	// from the daemon's timestamps, so they do not depend on it.
	pollInterval = 150 * time.Millisecond
	ringTrace    = "examples/traces/ring.jsonl"
	// daemonSetupBatch set-ups make one setup_s sample: one takes well
	// under a millisecond of CPU.
	daemonSetupBatch = 10
)

// daemonJob is one submission of the stream.
type daemonJob struct {
	label string
	body  []byte
	// triple marks the measured/de/am jobs of the accuracy triple.
	triple string
}

// daemonUniverse is every distinct spec a stream submits: AM and DE
// over all four apps, three rank counts and the three machine presets,
// one measured run (with the AM and DE runs of the same config it forms
// the accuracy triple), and the ring trace replayed on each machine as
// recorded and extrapolated.
func daemonUniverse(ring string) ([]daemonJob, error) {
	var specs []svc.JobSpec
	for _, app := range apps.Names() {
		ranks := []int{2, 4, 8}
		if app == "nassp" {
			ranks = []int{4, 9, 16} // square process grids only
		}
		for _, p := range ranks {
			for _, m := range machine.Names() {
				for _, mode := range []string{"am", "de"} {
					specs = append(specs, svc.JobSpec{App: app, Ranks: p, Machine: m, Mode: mode})
				}
			}
		}
	}
	specs = append(specs, svc.JobSpec{App: tripleApp, Ranks: tripleRanks, Machine: tripleMachine, Mode: "measured"})
	for _, m := range machine.Names() {
		for _, p := range []int{0, 16, 32, 64} {
			specs = append(specs, svc.JobSpec{Trace: ring, TraceRanks: p, Machine: m})
		}
	}
	jobs := make([]daemonJob, len(specs))
	for i, s := range specs {
		body, err := json.Marshal(&s)
		if err != nil {
			return nil, err
		}
		jobs[i] = daemonJob{body: body, label: fmt.Sprintf("%s/%s/%d/%s", s.App, s.Mode, s.Ranks, s.Machine)}
		if s.Trace != "" {
			jobs[i].label = fmt.Sprintf("trace/%d/%s", s.TraceRanks, s.Machine)
		}
		if s.App == tripleApp && s.Ranks == tripleRanks && s.Machine == tripleMachine {
			jobs[i].triple = s.Mode
		}
	}
	return jobs, nil
}

const (
	tripleApp     = "tomcatv"
	tripleRanks   = 8
	tripleMachine = "ibmsp"
)

// daemonStream orders the universe by seed: every spec once, plus half
// as many repeats of earlier submissions spread through the stream
// (about a third of all jobs).
func daemonStream(universe []daemonJob, seed int64) []daemonJob {
	rng := rand.New(rand.NewSource(seed))
	fresh := rng.Perm(len(universe))
	repeats := len(universe) / 2
	var seq []int
	for len(fresh) > 0 || repeats > 0 {
		if len(seq) > 0 && repeats > 0 && rng.Intn(len(fresh)+repeats) < repeats {
			seq = append(seq, seq[rng.Intn(len(seq))])
			repeats--
			continue
		}
		seq = append(seq, fresh[0])
		fresh = fresh[1:]
	}
	out := make([]daemonJob, len(seq))
	for i, u := range seq {
		out[i] = universe[u]
	}
	return out
}

type daemonMix struct {
	stream []daemonJob
	dir    string
	srv    *svc.Server
	hs     *http.Server
	served chan error
	base   string
}

func setupDaemon(e *env) (instance, error) {
	d := &daemonMix{dir: filepath.Join(e.out, "daemon", fmt.Sprintf("%d-%d", os.Getpid(), e.setups))}
	if err := os.RemoveAll(d.dir); err != nil {
		return nil, err
	}
	err := e.call("svc.new_server", e.setupSpan, 0, func() (err error) {
		d.srv, err = svc.NewServer(svc.Options{Dir: d.dir})
		return err
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Drain(context.Background())
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// jobResult is what one client saw of one job.
type jobResult struct {
	done              bool
	cached, refused   bool
	submit, fetch     time.Duration
	queueWait, runFor time.Duration // from the daemon's timestamps
	predicted         float64       // accuracy-triple jobs only
}

func (d *daemonMix) pass(e *env, span int) error {
	if e.universe == nil {
		ring, err := os.ReadFile(ringTrace) // relative to the checkout root
		if err != nil {
			return err
		}
		if e.universe, err = daemonUniverse(string(ring)); err != nil {
			return err
		}
	}
	// Pass p of a run submits the stream of seed 1000·seed+p+1, so a
	// run's figures average over several submission orders, and the
	// orders depend on the seed alone.
	d.stream = daemonStream(e.universe, 1000*e.seed+int64(e.pass)+1)
	results := make([]jobResult, len(d.stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 1; c <= daemonClients; c++ {
		client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(d.stream) {
					return
				}
				if err := d.job(e, client, lane, span, &d.stream[i], &results[i]); err != nil {
					e.fail("daemon_mix job %d (%s): %v", i, d.stream[i].label, err)
				}
			}
		}(c)
	}
	wg.Wait()

	var submit, fetch, queue, run []float64
	var hits, refused, failed float64
	times := map[string]float64{}
	for i, r := range results {
		switch {
		case r.refused:
			refused++
			failed++
			continue
		case !r.done:
			failed++
			continue
		}
		submit = append(submit, ms(r.submit))
		fetch = append(fetch, ms(r.fetch))
		if r.cached {
			hits++
		} else {
			queue = append(queue, ms(r.queueWait))
			run = append(run, ms(r.runFor))
		}
		if t := d.stream[i].triple; t != "" {
			times[t] = r.predicted
		}
	}
	if len(times) == 3 {
		e.amErr = 100 * math.Abs(times["am"]-times["measured"]) / times["measured"]
		e.deErr = 100 * math.Abs(times["de"]-times["measured"]) / times["measured"]
	}
	e.set("svc.jobs", float64(len(results)))
	e.set("svc.cache_hits", hits)
	e.set("svc.refused", refused)
	e.set("svc.failed", failed)
	e.set("svc.submit_ms", median(submit))
	e.set("svc.fetch_ms", median(fetch))
	e.set("svc.queue_wait_p50_ms", percentile(queue, 50))
	e.set("svc.queue_wait_p90_ms", percentile(queue, 90))
	e.set("svc.run_p50_ms", percentile(run, 50))
	e.set("svc.run_p90_ms", percentile(run, 90))
	return nil
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// job submits one spec, polls it to a terminal state and fetches its
// artifact. A refusal, error, non-done state, digest mismatch or
// header/body disagreement fails the job.
func (d *daemonMix) job(e *env, client *http.Client, lane, span int, j *daemonJob, res *jobResult) error {
	op := e.newOp()
	// Jobs are roots of their own: the two clients overlap, so their
	// shares are of the summed job latencies, not of the pass.
	jid := e.tr.Start("bench.job", 0, op, lane)
	defer e.tr.Finish(jid, nil)
	t0 := time.Now()

	sid := e.tr.Start("svc.submit", jid, op, lane)
	code, body, _, err := d.do(client, http.MethodPost, "/jobs", j.body)
	e.tr.Finish(sid, nil)
	res.submit = time.Since(t0)
	if err != nil {
		return err
	}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		res.refused = true
		return fmt.Errorf("refused: %d %s", code, bytes.TrimSpace(body))
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("submit: %d %s", code, bytes.TrimSpace(body))
	}
	var v svc.JobView
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("submit: %w", err)
	}

	pollStart := time.Now()
	pid := e.tr.Start("svc.poll", jid, op, lane)
	for !v.State.Terminal() {
		time.Sleep(pollInterval)
		code, body, _, err := d.do(client, http.MethodGet, "/jobs/"+v.ID, nil)
		if err != nil {
			e.tr.Finish(pid, nil)
			return err
		}
		if code != http.StatusOK {
			e.tr.Finish(pid, nil)
			return fmt.Errorf("poll: %d %s", code, bytes.TrimSpace(body))
		}
		if err := json.Unmarshal(body, &v); err != nil {
			e.tr.Finish(pid, nil)
			return fmt.Errorf("poll: %w", err)
		}
	}
	e.tr.Finish(pid, nil)
	if v.State != svc.JobDone {
		return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	res.cached = v.Cached
	if v.StartedAt != nil && v.FinishedAt != nil {
		res.queueWait = v.StartedAt.Sub(v.SubmittedAt)
		res.runFor = v.FinishedAt.Sub(*v.StartedAt)
		// The daemon's intervals can begin while the submit call is
		// still returning; their spans start no earlier than the poll
		// they nest in, so no time is counted twice.
		e.tr.Add("svc.queue_wait", pid, op, lane, later(v.SubmittedAt, pollStart), later(*v.StartedAt, pollStart))
		e.tr.Add("svc.run", pid, op, lane, later(*v.StartedAt, pollStart), *v.FinishedAt)
	}

	fid := e.tr.Start("svc.fetch", jid, op, lane)
	tf := time.Now()
	code, art, hdr, err := d.do(client, http.MethodGet, "/jobs/"+v.ID+"/artifact", nil)
	res.fetch = time.Since(tf)
	e.tr.Finish(fid, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("artifact: %d %s", code, bytes.TrimSpace(art))
	}
	sum := digest(art)
	if h := hdr.Get("X-Artifact-Sha256"); h != sum {
		return fmt.Errorf("artifact body hashes to %s but X-Artifact-Sha256 is %q", short(sum), h)
	}
	if err := e.oracle.check("daemon_mix/"+v.SpecHash, sum); err != nil {
		return err
	}
	if j.triple != "" {
		var a struct {
			PredictedTime float64 `json:"predicted_time"`
		}
		if err := json.Unmarshal(art, &a); err != nil {
			return fmt.Errorf("artifact: %w", err)
		}
		res.predicted = a.PredictedTime
	}
	res.done = true
	e.jobDone(t0)
	return nil
}

// do makes one request and reads the whole response.
func (d *daemonMix) do(client *http.Client, method, path string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header, err
}

func (d *daemonMix) probe(e *env) error { return nil }

// close stops the HTTP server, drains the daemon and removes its data.
func (d *daemonMix) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := d.hs.Shutdown(ctx)
	if err := <-d.served; err != http.ErrServerClosed && herr == nil {
		herr = err
	}
	derr := d.srv.Drain(ctx)
	if err := os.RemoveAll(d.dir); derr == nil {
		derr = err
	}
	if herr != nil {
		return herr
	}
	return derr
}
