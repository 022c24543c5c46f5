// Command perfbench is the repository's benchmark. It drives the path a
// real simulation takes (compile, check, calibrate, interp or trace
// replay, mpi, sim, net, the run artifact) and the svc daemon, reports
// end-to-end metrics from untraced runs and per-layer metrics from a
// separate traced run, and checks every operation's artifact against a
// reference digest. See README.md.
//
//	bash perfbench/run.sh --workload am_sweep3d_scale --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

var workloads = []*workload{
	{name: "am_sweep3d_scale", members: 2, setup: setupAMScale,
		why: "Sweep3D calibrated at 16 ranks predicts 512 and 2048 ranks with MPI-SIM-AM: the paper's headline use, where the static check dominates"},
	{name: "validate_tomcatv", members: len(tomcatvN), setup: setupValidate,
		why: "Tomcatv N=512 on 16 ranks run measured, DE and AM (the Figure 3 accuracy workflow): direct execution in interp does nearly all the work"},
	{name: "replay_whatif", members: len(replayPlacements), setup: setupReplay,
		why: "a 64-rank Sweep3D trace parsed, extrapolated and replayed at 4096 ranks flat and 1024 ranks on a 32x32 torus: no compiler, check or interp"},
	{name: "daemon_mix", members: 1, setupBatch: daemonSetupBatch, setup: setupDaemon,
		why: "two closed-loop clients against the svc daemon: AM, DE, measured and trace jobs over all apps and machines, a third repeats for cache hits"},
}

// metricDef names a reported metric.
type metricDef struct {
	name, unit, better string
}

// The end-to-end times are process CPU seconds. On a shared host the
// wall clock of these runs drifts by half and more between minutes
// (time stolen by the hypervisor); CPU time leaves the stolen time out.
// Wall time, job latency and throughput are reported per layer.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"am_error_pct", "%", "lower"},
	{"de_error_pct", "%", "lower"},
}

var perLayer = []metricDef{
	{"check.run_s", "s", "lower"},
	{"check.allocs", "count", "lower"},
	{"check.share", "ratio", "lower"},
	{"interp.measured_s", "s", "lower"},
	{"interp.de_s", "s", "lower"},
	{"interp.am_s", "s", "lower"},
	{"interp.allocs", "count", "lower"},
	{"interp.share", "ratio", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.delivered", "count", "lower"},
	{"sim.windows", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"net.build_s", "s", "lower"},
	{"net.share", "ratio", "lower"},
	{"tracein.parse_s", "s", "lower"},
	{"tracein.parse_mb_per_s", "MB/s", "higher"},
	{"tracein.extrapolate_s", "s", "lower"},
	{"tracein.replay_s", "s", "lower"},
	{"tracein.trace_bytes", "bytes", "lower"},
	{"tracein.events", "count", "lower"},
	{"compiler.compile_s", "s", "lower"},
	{"compiler.tasks", "count", "lower"},
	{"core.calibrate_s", "s", "lower"},
	{"core.calibrate_allocs", "count", "lower"},
	{"trace.encode_s", "s", "lower"},
	{"trace.artifact_bytes", "bytes", "lower"},
	{"svc.submit_ms", "ms", "lower"},
	{"svc.queue_wait_p50_ms", "ms", "lower"},
	{"svc.queue_wait_p90_ms", "ms", "lower"},
	{"svc.run_p50_ms", "ms", "lower"},
	{"svc.run_p90_ms", "ms", "lower"},
	{"svc.fetch_ms", "ms", "lower"},
	{"svc.cache_hits", "count", "higher"},
	{"svc.jobs", "count", "higher"},
	{"svc.refused", "count", "lower"},
	{"svc.failed", "count", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"bench.wall_s", "s", "lower"},
	{"bench.jobs_per_s", "1/s", "higher"},
	{"bench.job_p50_ms", "ms", "lower"},
	{"bench.job_p90_ms", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

const referencePath = "perfbench/reference.json"

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed (1 is the default configuration)")
	seconds := flag.Float64("seconds", 20, "seconds of timed phase to measure")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	record := flag.Bool("record", false, "add this run's artifact digests to the reference table instead of checking them")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(os.Stdout, *name, *seed, *seconds, *traced == 1, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, name string, seed int64, seconds float64, traced, record bool) error {
	var wl *workload
	for _, w := range workloads {
		if w.name == name {
			wl = w
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	orc, err := loadOracle(referencePath, record)
	if err != nil {
		return err
	}
	out := os.Getenv("CARGO_TARGET_DIR")
	if out == "" {
		out = ".bench_build"
	}
	out = filepath.Join(out, "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	e := &env{wl: wl, seed: seed, member: memberOf(seed, wl.members), out: out, oracle: orc}
	res, err := e.run(seconds, traced)
	if err != nil {
		return err
	}
	for i, f := range e.failures {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "... %d more failures\n", len(e.failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}
	if record {
		if err := orc.save(referencePath); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "workload %s seed %d (family member %d of %d): %d passes in %.1f s\n",
		wl.name, seed, e.member, wl.members, len(res.wallS)+len(res.tracedWallS), res.elapsedRun.Seconds())
	var metrics map[string]float64
	var defs []metricDef
	if traced {
		metrics, err = e.layerReport(stdout, res)
		defs = perLayer
	} else {
		metrics, err = e.endToEndReport(stdout, res)
		defs = endToEnd
	}
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: e.attempted, Failed: len(e.failures), Metrics: map[string]value{}}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	for _, d := range defs {
		line.Metrics[d.name] = value{metrics[d.name], d.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", data)
	return err
}

// memberOf maps a seed onto its workload's input family; seed 1 is
// member 0, the default configuration.
func memberOf(seed int64, members int) int {
	m := int((seed - 1) % int64(members))
	if m < 0 {
		m += members
	}
	return m
}

func (e *env) endToEndReport(w io.Writer, res *runResult) (map[string]float64, error) {
	m := map[string]float64{
		"setup_s":      median(res.setupCPU),
		"cpu_s":        median(res.cpuS),
		"peak_rss_mb":  median(res.rssMB),
		"am_error_pct": e.amErr,
		"de_error_pct": e.deErr,
	}
	fmt.Fprintf(w, "setup_s: median CPU seconds of %d set-ups; cpu_s and peak_rss_mb: medians of %d passes\n", len(res.setupCPU), len(res.cpuS))
	fmt.Fprintf(w, "setup_s samples: %s\n", fmtList(res.setupCPU, "%.4g"))
	fmt.Fprintf(w, "pass cpu_s: %s\n", fmtList(res.cpuS, "%.3f"))
	fmt.Fprintf(w, "pass peak_rss_mb: %s\n", fmtList(res.rssMB, "%.1f"))
	e.wallReport(w, res, m)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-24s %14.6g %s\n", d.name, m[d.name], d.unit)
	}
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "bench.") && d.name != "bench.trace_overhead_pct" {
			fmt.Fprintf(w, "%-24s %14.6g %s (wall clock, not gated)\n", d.name, m[d.name], d.unit)
		}
	}
	return m, nil
}

// wallReport adds the wall-clock figures of the untraced passes: pass
// time, job throughput and job latency.
func (e *env) wallReport(w io.Writer, res *runResult, m map[string]float64) {
	throughput := ratio{name: "bench.jobs_per_s", num: float64(len(e.jobMS)), den: sum(res.wallS),
		numLabel: "jobs done", denLabel: "wall s of untraced passes"}
	m["bench.wall_s"] = median(res.wallS)
	m["bench.jobs_per_s"] = throughput.value()
	m["bench.job_p50_ms"] = percentile(e.jobMS, 50)
	m["bench.job_p90_ms"] = percentile(e.jobMS, 90)
	fmt.Fprintf(w, "pass wall_s: %s\n", fmtList(res.wallS, "%.3f"))
	fmt.Fprintln(w, timingSummary("job latency", e.jobMS))
	fmt.Fprintln(w, throughput)
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// layerReport computes the per-layer metrics (medians over the traced
// passes), prints them with every ratio's base, prints the self-time
// tables and writes the Chrome trace.
func (e *env) layerReport(w io.Writer, res *runResult) (map[string]float64, error) {
	// Counts and times are medians over the traced passes. Ratios divide
	// totals over them, so a share of the pass time never exceeds what
	// its own passes add up to.
	m := map[string]float64{}
	tot := map[string]float64{}
	samples := map[string][]float64{}
	for _, l := range res.layers {
		for k, v := range l {
			samples[k] = append(samples[k], v)
			tot[k] += v
		}
	}
	for k, xs := range samples {
		m[k] = median(xs)
	}
	interp := tot["interp.measured_s"] + tot["interp.de_s"] + tot["interp.am_s"]
	pass := tot["bench.pass_s"]
	ratios := []ratio{
		{name: "check.share", num: tot["check.run_s"], den: pass, numLabel: "check.run_s total", denLabel: "pass_s total"},
		{name: "interp.share", num: interp, den: pass, numLabel: "interp.*_s total", denLabel: "pass_s total"},
		{name: "net.share", num: tot["net.build_s"], den: pass, numLabel: "net.build_s total", denLabel: "pass_s total"},
		{name: "sim.events_per_s", num: tot["sim.events"], den: interp + tot["tracein.replay_s"],
			numLabel: "sim.events total", denLabel: "interp.*_s+tracein.replay_s total"},
		{name: "tracein.parse_mb_per_s", num: tot["tracein.trace_bytes"] / 1e6, den: tot["tracein.parse_s"],
			numLabel: "trace MB total", denLabel: "tracein.parse_s total"},
		{name: "bench.trace_overhead_pct", num: median(res.tracedCPUS) - median(res.cpuS), den: median(res.cpuS), scale: 100,
			numLabel: "traced-untraced pass cpu_s", denLabel: "untraced pass cpu_s"},
	}
	for _, r := range ratios {
		m[r.name] = r.value()
	}
	fmt.Fprintf(w, "per-layer metrics: medians over %d traced passes; bench.* over the %d untraced passes\n", len(res.layers), len(res.wallS))
	e.wallReport(w, res, m)
	names := make([]string, 0, len(perLayer))
	for _, d := range perLayer {
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-26s %14.6g\n", n, m[n])
	}
	for _, r := range ratios {
		fmt.Fprintln(w, "  "+r.String())
	}

	spans := res.spans
	var tables strings.Builder
	for _, root := range []string{"bench.pass", "bench.job", "bench.setup"} {
		rows, base := layerTable(spans, root)
		if base == 0 || rows[0].Layer == "bench" && rows[0].Share == 1 {
			continue // nothing under these roots, or only the benchmark's own
		}
		writeLayerTable(&tables, e.wl.name, root, rows, base)
	}
	fmt.Fprint(w, tables.String())
	stem := filepath.Join(e.out, fmt.Sprintf("%s-seed%d", e.wl.name, e.seed))
	if err := os.WriteFile(stem+".layers.txt", []byte(tables.String()), 0o644); err != nil {
		return nil, err
	}
	f, err := os.Create(stem + ".trace.json")
	if err != nil {
		return nil, err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "chrome trace: %s.trace.json\n", stem)
	return m, nil
}
