package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"mpisim/internal/trace"
)

// workload is one set of inputs the benchmark runs. Its seeded input
// family has members entries; a seed picks one.
type workload struct {
	name    string
	why     string
	members int
	// setupBatch is how many set-ups one setup_s sample times together
	// (0 means 1). A set-up far cheaper than the process's background
	// CPU noise is timed in batches, and the sample is the mean.
	setupBatch int
	// setup does the one-time work before a timed phase and returns the
	// instance the phase runs on.
	setup func(e *env) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// pass runs one timed phase under the pass span.
	pass(e *env, span int) error
	// probe runs the untimed checks after the last pass: cross-checks
	// and the accuracy figures.
	probe(e *env) error
	close() error
}

// env is one benchmark run: the inputs derived from the seed, the
// tracer of the current pass (nil when the pass is untraced), the
// oracle and every sample the run collects.
type env struct {
	wl     *workload
	seed   int64
	member int
	out    string // where traces, tables and daemon data go
	oracle *oracle
	tr     *Tracer
	// inSetup marks calls made during set-up, under span setupSpan: only
	// the compiler and calibration layers count them as per-layer work.
	inSetup   bool
	setupSpan int
	setups    int // set-ups started so far; names scratch directories only
	pass      int // index of the current pass, from 0

	mu        sync.Mutex
	attempted int
	failures  []string
	jobMS     []float64          // latency of every job of the untraced passes
	cur       map[string]float64 // per-layer counts of the current traced pass
	amErr     float64            // relative errors against measured, percent
	deErr     float64
	universe  []daemonJob // daemon_mix's distinct specs
}

// fail records a failed operation.
func (e *env) fail(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failures = append(e.failures, fmt.Sprintf(format, args...))
}

// newOp counts an operation as attempted and returns its number.
func (e *env) newOp() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	return e.attempted
}

// jobDone records the latency of a job that started at t0. A job is
// one request: a daemon job, or the whole of one library pass.
func (e *env) jobDone(t0 time.Time) {
	if e.tr != nil {
		return // tracing would inflate it
	}
	d := time.Since(t0)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.jobMS = append(e.jobMS, ms(d))
}

// add accumulates a per-layer count for the current traced pass.
func (e *env) add(key string, v float64) {
	if e.tr == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cur[key] += v
}

// set records a per-layer figure of the current traced pass.
func (e *env) set(key string, v float64) {
	if e.tr == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cur[key] = v
}

// call times fn as a span named "<layer>.<call>". In a traced pass it
// also counts the heap allocations fn made and adds the span's time to
// the per-layer metric of the same name.
func (e *env) call(name string, parent, op int, fn func() error) error {
	if e.tr == nil {
		return fn()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := e.tr.Start(name, parent, op, 0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs - m0.Mallocs)
	e.tr.Finish(id, map[string]float64{"allocs": allocs})
	layer := name[:strings.IndexByte(name, '.')]
	if e.inSetup && layer != "compiler" && layer != "core" {
		return err
	}
	e.add(name+"_s", d.Seconds())
	switch layer {
	case "check", "interp":
		e.add(layer+".allocs", allocs)
	case "core":
		e.add(name+"_allocs", allocs)
	}
	return err
}

// predict runs one operation under its own span: fn, given the
// operation's number and span, produces the run's artifact, whose
// digest must equal the reference under key. It returns the artifact.
func (e *env) predict(key string, parent int, fn func(op, span int) (*trace.Artifact, error)) *trace.Artifact {
	op := e.newOp()
	id := e.tr.Start("bench.op", parent, op, 0)
	art, data, err := func() (*trace.Artifact, []byte, error) {
		art, err := fn(op, id)
		if err != nil {
			return nil, nil, err
		}
		var data []byte
		err = e.call("trace.encode", id, op, func() (err error) {
			data, err = trace.EncodeArtifact(art)
			return err
		})
		return art, data, err
	}()
	if err == nil {
		err = e.oracle.check(key, digest(data))
	}
	e.tr.Finish(id, nil)
	if err != nil {
		e.fail("%s: %v", key, err)
		return nil
	}
	e.add("trace.artifact_bytes", float64(len(data)))
	return art
}

// runResult is what the pass loop measured.
type runResult struct {
	setupCPU []float64 // process CPU seconds of each set-up
	rssMB    []float64 // peak resident set of each pass, set-up included
	// Wall and CPU seconds of the untraced passes (all passes of an
	// untraced run) and of the traced passes of a traced run.
	wallS, cpuS             []float64
	tracedWallS, tracedCPUS []float64
	layers                  []map[string]float64
	spans                   []Span // of the traced passes
	elapsedRun              time.Duration
}

// run sets up and runs timed passes until seconds of timed phase have
// passed (and at least minPasses ran), then runs the probe. In a traced
// run every other pass is traced, so the run also measures the
// tracing overhead.
func (e *env) run(seconds float64, traced bool) (*runResult, error) {
	res := &runResult{}
	minPasses := 3
	if traced {
		minPasses = 4
	}
	var tracer *Tracer
	if traced {
		tracer = newTracer()
	}
	var timed float64
	start := time.Now()
	for pass := 0; ; pass++ {
		e.tr = nil
		tracedPass := traced && pass%2 == 0
		if tracedPass {
			e.tr = tracer
			e.cur = map[string]float64{}
		}
		e.pass = pass
		settle()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		e.inSetup = true
		sid := e.tr.Start("bench.setup", 0, 0, 0)
		e.setupSpan = sid
		e.setups++
		c0 := cpuTime()
		inst, err := e.wl.setup(e)
		setupCPU := cpuTime() - c0
		e.tr.Finish(sid, nil)
		e.inSetup = false
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", e.wl.name, err)
		}
		setupIdx := len(res.setupCPU)
		if e.wl.setupBatch <= 1 {
			res.setupCPU = append(res.setupCPU, setupCPU.Seconds())
		}

		settle()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		pid := e.tr.Start("bench.pass", 0, 0, 0)
		c0 = cpuTime()
		t0 := time.Now()
		err = inst.pass(e, pid)
		d := time.Since(t0)
		c := cpuTime() - c0
		e.tr.Finish(pid, nil)
		runtime.ReadMemStats(&m1)
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("%s pass: %w", e.wl.name, err)
		}
		timed += d.Seconds()
		rss, err := peakRSSMB()
		if err != nil {
			inst.close()
			return nil, err
		}
		res.rssMB = append(res.rssMB, rss)
		if tracedPass {
			e.add("go.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			e.add("go.gc_cycles", float64(m1.NumGC-m0.NumGC))
			e.cur["bench.pass_s"] = d.Seconds()
			res.layers = append(res.layers, e.cur)
			res.tracedWallS = append(res.tracedWallS, d.Seconds())
			res.tracedCPUS = append(res.tracedCPUS, c.Seconds())
		} else {
			res.wallS = append(res.wallS, d.Seconds())
			res.cpuS = append(res.cpuS, c.Seconds())
		}

		last := pass+1 >= minPasses && timed >= seconds
		if last {
			e.tr = nil
			if err := inst.probe(e); err != nil {
				inst.close()
				return nil, fmt.Errorf("%s probe: %w", e.wl.name, err)
			}
		}
		if err := inst.close(); err != nil {
			return nil, fmt.Errorf("%s close: %w", e.wl.name, err)
		}
		if err := e.moreSetups(res, setupIdx); err != nil {
			return nil, err
		}
		if last {
			break
		}
	}
	for len(res.setupCPU) < minSetups {
		if err := e.timeSetup(res); err != nil {
			return nil, err
		}
	}
	res.elapsedRun = time.Since(start)
	res.spans = tracer.Spans()
	return res, nil
}

// Set-up time is noisy next to a pass, and the host's speed drifts
// within a run. So after every pass the set-up is timed alone, which
// spreads the samples over the whole run: setupsPerPass samples per
// pass (the pass's own set-up counts as one unless set-ups are
// batched), and at least minSetups in a run.
const (
	setupsPerPass = 3
	minSetups     = 15
)

// moreSetups takes set-up samples after a pass until the pass has
// setupsPerPass of them, counting from res.setupCPU[first].
func (e *env) moreSetups(res *runResult, first int) error {
	for len(res.setupCPU)-first < setupsPerPass {
		if err := e.timeSetup(res); err != nil {
			return err
		}
	}
	return nil
}

// timeSetup takes one setup_s sample: it times the workload's batch of
// untraced set-ups together, then closes them.
func (e *env) timeSetup(res *runResult) error {
	e.tr = nil
	n := max(e.wl.setupBatch, 1)
	insts := make([]instance, 0, n)
	settle()
	c0 := cpuTime()
	var err error
	for len(insts) < n && err == nil {
		var inst instance
		e.setups++
		if inst, err = e.wl.setup(e); err == nil {
			insts = append(insts, inst)
		}
	}
	c := cpuTime() - c0
	if err != nil {
		err = fmt.Errorf("%s setup: %w", e.wl.name, err)
	}
	for _, inst := range insts {
		if cerr := inst.close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s close: %w", e.wl.name, cerr)
		}
	}
	if err != nil {
		return err
	}
	res.setupCPU = append(res.setupCPU, c.Seconds()/float64(n))
	return nil
}

// settle starts a timed set-up or pass from a quiet process and file
// system: it collects the heap and flushes dirty file data, so the
// write-back that earlier work left behind (the daemon's journal,
// artifact and data-directory churn) is not billed to what comes next.
func settle() {
	runtime.GC()
	syscall.Sync()
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// resetPeakRSS restarts the kernel's peak-RSS count (VmHWM), so each
// pass reports its own peak. Without the reset peak_rss_mb would be the
// peak of the whole process, earlier passes included, so a refused
// reset fails the run.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(line[len("VmHWM:"):]), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
