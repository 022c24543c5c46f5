package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"mpisim/internal/apps"
	"mpisim/internal/core"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
	"mpisim/internal/net"
	"mpisim/internal/trace"
	"mpisim/internal/tracein"
)

// Library workloads drive the packages the way a user's program does:
// checks on, the sequential engine (HostWorkers 1) and no telemetry.
// Every prediction starts from a fresh Runner holding the set-up
// compilation and task times, so each one pays for its own static
// check, as a new prediction does.

// calibrated is the product of a library workload's set-up.
type calibrated struct {
	app    string
	runner *core.Runner
}

// setupCalibrated compiles prog and calibrates it at (ranks, inputs).
func setupCalibrated(e *env, app string, prog *ir.Program, ranks int, inputs map[string]float64) (*calibrated, error) {
	var r *core.Runner
	err := e.call("compiler.compile", e.setupSpan, 0, func() (err error) {
		r, err = core.NewRunner(prog, machine.IBMSP())
		return err
	})
	if err != nil {
		return nil, err
	}
	e.add("compiler.tasks", float64(len(r.Compiled.TaskVars)))
	if e.tr != nil {
		// Run the calibration config's check on its own so calibrate's
		// span holds the calibration runs only.
		if err := e.call("check.run", e.setupSpan, 0, func() error { return checkClean(r, ranks, inputs) }); err != nil {
			return nil, err
		}
	}
	err = e.call("core.calibrate", e.setupSpan, 0, func() error {
		_, err := r.Calibrate(ranks, inputs)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &calibrated{app: app, runner: r}, nil
}

// fresh returns a new Runner over the set-up compilation and task times.
func (c *calibrated) fresh() *core.Runner {
	r := c.runner
	return &core.Runner{Program: r.Program, Machine: r.Machine, Compiled: r.Compiled, TaskTimes: r.TaskTimes}
}

// checkClean runs the static check and refuses findings of error
// severity, as Run's own pre-check does.
func checkClean(r *core.Runner, ranks int, inputs map[string]float64) error {
	res, err := r.Check(ranks, inputs)
	if err != nil {
		return err
	}
	if res.HasErrors() {
		return &core.CheckError{Result: res}
	}
	return nil
}

// simulate is one prediction through core.Runner.Run. In a traced pass
// the static check runs as its own call first (Run then finds it
// cached), so check and interp time separate.
func (e *env) simulate(c *calibrated, r *core.Runner, mode core.Mode, ranks int, inputs map[string]float64, parent, op int) (*trace.Artifact, error) {
	if e.tr != nil {
		if err := e.call("check.run", parent, op, func() error { return checkClean(r, ranks, inputs) }); err != nil {
			return nil, err
		}
	}
	var rep *mpi.Report
	err := e.call("interp."+interpCall[mode], parent, op, func() (err error) {
		rep, err = r.Run(mode, ranks, inputs)
		return err
	})
	if err != nil {
		return nil, err
	}
	e.addKernel(rep)
	return runArtifact(c.app, mode.String(), r, inputs, rep), nil
}

var interpCall = map[core.Mode]string{core.Measured: "measured", core.DirectExec: "de", core.Abstract: "am"}

// addKernel counts the simulation kernel's work.
func (e *env) addKernel(rep *mpi.Report) {
	e.add("sim.events", float64(rep.Kernel.Events))
	e.add("sim.delivered", float64(rep.Kernel.Delivered))
	e.add("sim.windows", float64(rep.Kernel.Windows))
}

// runArtifact builds the artifact the daemon would store for the run.
func runArtifact(app, mode string, r *core.Runner, inputs map[string]float64, rep *mpi.Report) *trace.Artifact {
	art := &trace.Artifact{App: app, Mode: mode, Machine: r.Machine.Name, Inputs: inputs, Report: rep}
	if tls := r.Compiled.TaskLines(); len(tls) > 0 {
		art.TaskLines = make(map[string]int, len(tls))
		art.TaskHeads = make(map[string]string, len(tls))
		for _, tl := range tls {
			art.TaskLines[tl.Task] = tl.Line
			art.TaskHeads[tl.Task] = tl.Head
		}
	}
	return art
}

// validate is Runner.Validate's measured, DE and AM runs as three
// operations, which lets each be timed and checked on its own. It
// stores the relative errors against measured, in percent.
func (e *env) validate(c *calibrated, ranks int, inputs map[string]float64, keyPrefix string, parent int) {
	r := c.fresh()
	times := map[core.Mode]float64{}
	for _, mode := range []core.Mode{core.Measured, core.DirectExec, core.Abstract} {
		art := e.predict(keyPrefix+interpCall[mode], parent, func(op, span int) (*trace.Artifact, error) {
			return e.simulate(c, r, mode, ranks, inputs, span, op)
		})
		if art == nil {
			return
		}
		times[mode] = art.Report.Time
	}
	meas := times[core.Measured]
	e.amErr = 100 * math.Abs(times[core.Abstract]-meas) / meas
	e.deErr = 100 * math.Abs(times[core.DirectExec]-meas) / meas
}

// --- am_sweep3d_scale -------------------------------------------------

// sweepInputs are Sweep3D's default per-rank shape (4x4x40 cells,
// k-blocks of 10) on the ranks' process grid, transposed when asked.
func sweepInputs(ranks int, transpose bool) map[string]float64 {
	npx, npy := apps.ProcGrid(ranks)
	if transpose {
		npx, npy = npy, npx
	}
	return apps.Sweep3DInputs(4, 4, 40, 10, npx, npy)
}

var amScaleRanks = []int{512, 2048}

type amScale struct {
	c         *calibrated
	transpose bool
}

func setupAMScale(e *env) (instance, error) {
	c, err := setupCalibrated(e, "sweep3d", apps.Sweep3D(), 16, sweepInputs(16, false))
	if err != nil {
		return nil, err
	}
	return &amScale{c: c, transpose: e.member == 1}, nil
}

func (w *amScale) key(op string) string {
	return fmt.Sprintf("am_sweep3d_scale/transpose=%v/%s", w.transpose, op)
}

func (w *amScale) pass(e *env, span int) error {
	defer e.jobDone(time.Now())
	for _, ranks := range amScaleRanks {
		in := sweepInputs(ranks, w.transpose)
		e.predict(w.key(fmt.Sprintf("am/%d", ranks)), span, func(op, opSpan int) (*trace.Artifact, error) {
			return e.simulate(w.c, w.c.fresh(), core.Abstract, ranks, in, opSpan, op)
		})
	}
	return nil
}

// probe measures the accuracy paid for the speed at the calibration
// config, where measured runs are affordable.
func (w *amScale) probe(e *env) error {
	e.validate(w.c, 16, sweepInputs(16, false), w.key("probe16/"), 0)
	return nil
}

func (w *amScale) close() error { return nil }

// --- validate_tomcatv -------------------------------------------------

// tomcatvN is the seeded family of grid sides: 512 (the default seed)
// and two neighbours that keep the work within one percent.
var tomcatvN = []int{512, 510, 514}

const (
	tomcatvRanks    = 16
	tomcatvIter     = 3
	tomcatvCalRanks = 4
	tomcatvCalN     = 128
)

type validateTomcatv struct {
	c *calibrated
	n int
}

func setupValidate(e *env) (instance, error) {
	c, err := setupCalibrated(e, "tomcatv", apps.Tomcatv(), tomcatvCalRanks, apps.TomcatvInputs(tomcatvCalN, tomcatvIter))
	if err != nil {
		return nil, err
	}
	return &validateTomcatv{c: c, n: tomcatvN[e.member]}, nil
}

func (w *validateTomcatv) pass(e *env, span int) error {
	defer e.jobDone(time.Now())
	e.validate(w.c, tomcatvRanks, apps.TomcatvInputs(w.n, tomcatvIter),
		fmt.Sprintf("validate_tomcatv/N=%d/", w.n), span)
	return nil
}

func (w *validateTomcatv) probe(e *env) error { return nil }
func (w *validateTomcatv) close() error       { return nil }

// --- replay_whatif ----------------------------------------------------

const (
	replayRecordRanks = 64
	replayFlatRanks   = 4096
	replayTorusRanks  = 1024
	replayTorus       = "torus:dims=32x32"
)

// replayPlacements is the seeded family: where the 1024 ranks sit on
// the torus. Every per-rank shape change would move the recorded
// run's accuracy; placement leaves it and the flat half alone.
var replayPlacements = []string{"block", "random:1", "random:2"}

type replayWhatIf struct {
	c         *calibrated
	placement string
	inputs    map[string]float64
	rec       *mpi.Report // the recording run
	data      []byte      // the serialized JSONL trace
}

func setupReplay(e *env) (instance, error) {
	c, err := setupCalibrated(e, "sweep3d", apps.Sweep3D(), 16, sweepInputs(16, false))
	if err != nil {
		return nil, err
	}
	w := &replayWhatIf{c: c, placement: replayPlacements[e.member], inputs: sweepInputs(replayRecordRanks, false)}
	r := c.fresh()
	r.RecordCalls = true
	err = e.call("interp.record", e.setupSpan, 0, func() (err error) {
		w.rec, err = r.Run(core.Abstract, replayRecordRanks, w.inputs)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = e.call("tracein.write", e.setupSpan, 0, func() error {
		tr, err := tracein.Record(w.rec, tracein.Header{
			App: "sweep3d", Mode: core.Abstract.String(), Machine: r.Machine.Name,
			Comm: core.Abstract.Comm(), Inputs: w.inputs, TaskScale: r.Compiled.TaskScales(),
		})
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := tracein.Write(&buf, tr); err != nil {
			return err
		}
		w.data = buf.Bytes()
		return nil
	})
	return w, err
}

func (w *replayWhatIf) key(op string) string {
	return fmt.Sprintf("replay_whatif/placement=%s/%s", w.placement, op)
}

func (w *replayWhatIf) parse(e *env, parent int) (*tracein.Trace, error) {
	var tr *tracein.Trace
	err := e.call("tracein.parse", parent, 0, func() (err error) {
		tr, err = tracein.ParseBytes(w.data)
		return err
	})
	if err != nil {
		return nil, err
	}
	e.add("tracein.trace_bytes", float64(len(w.data)))
	e.add("tracein.events", float64(tr.Events()))
	return tr, nil
}

func (w *replayWhatIf) pass(e *env, span int) error {
	defer e.jobDone(time.Now())
	tr, err := w.parse(e, span)
	if err != nil {
		return err
	}
	flat, err := machine.ByName(tr.Header.Machine)
	if err != nil {
		return err
	}
	torus, _ := machine.ByName(tr.Header.Machine)
	torus.Topology = replayTorus
	torus.Placement = w.placement
	for _, t := range []struct {
		name  string
		ranks int
		m     *machine.Model
	}{{"flat", replayFlatRanks, flat}, {"torus", replayTorusRanks, torus}} {
		e.predict(w.key(fmt.Sprintf("%s/%d", t.name, t.ranks)), span, func(op, opSpan int) (*trace.Artifact, error) {
			var x *tracein.Trace
			err := e.call("tracein.extrapolate", opSpan, op, func() (err error) {
				x, err = tracein.Extrapolate(tr, tracein.ExtrapolateOptions{Ranks: t.ranks})
				return err
			})
			if err != nil {
				return nil, err
			}
			return e.replay(x, t.m, opSpan, op)
		})
	}
	return nil
}

// replay is one tracein.Replay call. In a traced pass a non-flat
// network is first built as its own call, so the net layer shows.
func (e *env) replay(tr *tracein.Trace, m *machine.Model, parent, op int) (*trace.Artifact, error) {
	if e.tr != nil && m.Topology != "" {
		if err := e.call("net.build", parent, op, func() error {
			_, err := net.Build(m, tr.Header.Ranks)
			return err
		}); err != nil {
			return nil, err
		}
	}
	var rep *mpi.Report
	err := e.call("tracein.replay", parent, op, func() (err error) {
		rep, err = tracein.Replay(tr, mpi.Config{Machine: m})
		return err
	})
	if err != nil {
		return nil, err
	}
	e.addKernel(rep)
	return &trace.Artifact{App: tr.Header.App, Mode: "replay", Machine: m.Name, Inputs: tr.Header.Inputs, Report: rep}, nil
}

// probe cross-checks that replaying the recorded trace unchanged
// reproduces the recording run's prediction bit for bit, then measures
// the recorded run's accuracy at the recording config.
func (w *replayWhatIf) probe(e *env) error {
	tr, err := tracein.ParseBytes(w.data)
	if err != nil {
		return err
	}
	m, err := machine.ByName(tr.Header.Machine)
	if err != nil {
		return err
	}
	e.predict(w.key(fmt.Sprintf("identity/%d", replayRecordRanks)), 0, func(op, span int) (*trace.Artifact, error) {
		art, err := e.replay(tr, m, span, op)
		if err != nil {
			return nil, err
		}
		if err := sameSchedule(w.rec, art.Report); err != nil {
			return nil, err
		}
		return art, nil
	})
	e.validate(w.c, replayRecordRanks, w.inputs, w.key(fmt.Sprintf("probe%d/", replayRecordRanks)), 0)
	return nil
}

// sameSchedule requires bit-identical predicted and per-rank finish
// times.
func sameSchedule(want, got *mpi.Report) error {
	if math.Float64bits(want.Time) != math.Float64bits(got.Time) {
		return fmt.Errorf("replay predicted %v, recording run %v", got.Time, want.Time)
	}
	if len(want.Ranks) != len(got.Ranks) {
		return fmt.Errorf("replay has %d ranks, recording run %d", len(got.Ranks), len(want.Ranks))
	}
	for i := range want.Ranks {
		if math.Float64bits(float64(want.Ranks[i].FinishTime)) != math.Float64bits(float64(got.Ranks[i].FinishTime)) {
			return fmt.Errorf("rank %d finishes at %v in replay, %v in the recording run", i, got.Ranks[i].FinishTime, want.Ranks[i].FinishTime)
		}
	}
	return nil
}

func (w *replayWhatIf) close() error { return nil }
