package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"mpisim/internal/mpi"
	"mpisim/internal/trace"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{9, 0, 0, false},
		{19, 0, 0, false},
		{20, 50, 10, true},
		{39, 50, 19, true},
		{40, 75, 10, true},
		{99, 75, 24, true},
		{100, 90, 10, true},
		{127, 90, 12, true},
		{200, 95, 10, true},
		{1000, 99, 10, true},
		{10000, 99.9, 10, true},
	} {
		p, beyond, ok := supportedPercentile(c.n)
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("n=%d: got p%g (%d beyond, ok %v), want p%g (%d beyond, ok %v)", c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
	got := timingSummary("lat", make([]float64, 100))
	if !strings.Contains(got, "p90") || !strings.Contains(got, "n=100") || !strings.Contains(got, "10 beyond") {
		t.Errorf("summary %q does not name p90, the sample count and the support", got)
	}
	if got := timingSummary("lat", make([]float64, 5)); !strings.Contains(got, "n=5") || strings.Contains(got, "p90") {
		t.Errorf("summary %q of 5 samples names an unsupported percentile", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 90); got != 5 {
		t.Errorf("p90 = %v, want 5", got)
	}
	if got := percentile([]float64{2, 1, 10, 20}, 50); got != 2 {
		t.Errorf("median of a two-sized mix = %v, want 2 (a real sample)", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func ms10(n int) time.Duration { return time.Duration(n) * 10 * time.Millisecond }

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "bench.pass", Start: ms10(0), End: ms10(10)},
		{ID: 2, Parent: 1, Name: "check.run", Start: ms10(1), End: ms10(4)},
		{ID: 3, Parent: 2, Name: "interp.am", Start: ms10(2), End: ms10(3)},
		// Overlaps its sibling: the overlap is subtracted once.
		{ID: 4, Parent: 1, Name: "trace.encode", Start: ms10(3), End: ms10(6)},
		// Runs past the parent's end: only the inside part counts.
		{ID: 5, Parent: 1, Name: "trace.encode", Start: ms10(9), End: ms10(12)},
		{ID: 6, Name: "bench.setup", Start: ms10(20), End: ms10(21)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms10(4), 2: ms10(2), 3: ms10(1), 4: ms10(3), 5: ms10(3), 6: ms10(1)} {
		if self[id] != want {
			t.Errorf("span %d self = %v, want %v", id, self[id], want)
		}
	}
	rows, base := layerTable(spans, "bench.pass")
	if base != ms10(10) {
		t.Errorf("base = %v, want %v (only bench.pass roots)", base, ms10(10))
	}
	layers := map[string]layerRow{}
	for _, r := range rows {
		if r.Call == "" {
			layers[r.Layer] = r
		}
	}
	for l, want := range map[string]time.Duration{"bench": ms10(4), "check": ms10(2), "interp": ms10(1), "trace": ms10(6)} {
		if layers[l].Self != want {
			t.Errorf("layer %s self = %v, want %v", l, layers[l].Self, want)
		}
	}
	if got := layers["trace"].Share; got != 0.6 {
		t.Errorf("trace share = %v, want 0.6", got)
	}
	if rows[0].Layer != "trace" || rows[0].Call != "" || rows[1].Call != "encode" {
		t.Errorf("rows not ordered layer-then-calls by self time: %+v", rows[:2])
	}
}

func TestTracerNilIsUntraced(t *testing.T) {
	var tr *Tracer
	if id := tr.Start("check.run", 0, 1, 0); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	tr.Finish(0, nil)
	tr.Add("svc.run", 0, 1, 0, time.Now(), time.Now())
	if tr.Spans() != nil {
		t.Fatal("nil tracer recorded spans")
	}
}

func TestChromeTraceEvents(t *testing.T) {
	tr := newTracer()
	root := tr.Start("bench.op", 0, 7, 1)
	tr.Finish(tr.Start("check.run", root, 7, 1), map[string]float64{"allocs": 3})
	tr.Finish(root, nil)
	var buf bytes.Buffer
	if err := writeChrome(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Tid           int
			Args          map[string]float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "check.run" || ev.Cat != "check" || ev.Ph != "X" || ev.Tid != 1 ||
		ev.Args["parent"] != float64(root) || ev.Args["op"] != 7 || ev.Args["allocs"] != 3 {
		t.Errorf("event = %+v", ev)
	}
}

// ratioLine matches a printed ratio: "name = v (num-label n / den-label d)".
var ratioLine = regexp.MustCompile(`^\s*([a-z_.]+) = \S+ \(.+ \S+ / .+ \S+\)$`)

func TestEveryRatioPrintedWithBase(t *testing.T) {
	dir := t.TempDir()
	e := &env{wl: &workload{name: "unit"}, out: dir, oracle: &oracle{}}
	res := &runResult{
		setupCPU: []float64{1, 2}, wallS: []float64{2, 3}, cpuS: []float64{2, 3},
		tracedWallS: []float64{3}, tracedCPUS: []float64{3},
		layers: []map[string]float64{{
			"bench.pass_s": 3, "check.run_s": 1, "interp.am_s": 1, "net.build_s": 0.5,
			"sim.events": 100, "tracein.replay_s": 1, "tracein.trace_bytes": 2e6, "tracein.parse_s": 0.5,
		}},
	}
	var out bytes.Buffer
	m, err := e.layerReport(&out, res)
	if err != nil {
		t.Fatal(err)
	}
	e.jobMS = []float64{1, 2, 3}
	if _, err := e.endToEndReport(&out, res); err != nil {
		t.Fatal(err)
	}
	printed := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		if g := ratioLine.FindStringSubmatch(line); g != nil {
			printed[g[1]] = true
		}
	}
	for _, d := range append(append([]metricDef(nil), perLayer...), endToEnd...) {
		switch d.unit {
		case "ratio", "1/s", "MB/s", "%":
		default:
			continue
		}
		if d.name == "am_error_pct" || d.name == "de_error_pct" {
			continue // the base is the measured run, printed with the validation
		}
		if !printed[d.name] {
			t.Errorf("ratio %s (%s) printed without its base", d.name, d.unit)
		}
	}
	if got := m["check.share"]; got != 1.0/3 {
		t.Errorf("check.share = %v, want 1/3", got)
	}
	if got := m["tracein.parse_mb_per_s"]; got != 4 {
		t.Errorf("tracein.parse_mb_per_s = %v, want 4", got)
	}
}

func testArtifact(t *testing.T, predicted float64) (*trace.Artifact, string) {
	t.Helper()
	art := &trace.Artifact{App: "unit", Mode: "MPI-SIM-AM", Report: &mpi.Report{Time: predicted}}
	data, err := trace.EncodeArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	return art, digest(data)
}

func TestCorruptedReferenceDigestFailsOperation(t *testing.T) {
	art, sum := testArtifact(t, 1.5)
	good := &oracle{ref: map[string]string{"unit/op": sum}, seen: map[string]string{}}
	e := &env{oracle: good}
	if e.predict("unit/op", 0, func(int, int) (*trace.Artifact, error) { return art, nil }) == nil || len(e.failures) != 0 {
		t.Fatalf("matching digest failed: %v", e.failures)
	}

	corrupt := []byte(sum)
	corrupt[0] ^= 1
	bad := &oracle{ref: map[string]string{"unit/op": string(corrupt)}, seen: map[string]string{}}
	e = &env{oracle: bad}
	if e.predict("unit/op", 0, func(int, int) (*trace.Artifact, error) { return art, nil }) != nil {
		t.Error("operation with a corrupted reference digest succeeded")
	}
	if e.attempted != 1 || len(e.failures) != 1 || !strings.Contains(e.failures[0], "reference") {
		t.Errorf("attempted %d, failures %q; want one digest failure", e.attempted, e.failures)
	}

	// A digest missing from the table fails too, and so does one that
	// changes within a run.
	e = &env{oracle: &oracle{ref: map[string]string{}, seen: map[string]string{}}}
	e.predict("unit/other", 0, func(int, int) (*trace.Artifact, error) { return art, nil })
	if len(e.failures) != 1 {
		t.Errorf("missing reference: failures %q", e.failures)
	}
	rec := &oracle{ref: map[string]string{}, record: true, seen: map[string]string{}}
	art2, _ := testArtifact(t, 2.5)
	e = &env{oracle: rec}
	e.predict("unit/op", 0, func(int, int) (*trace.Artifact, error) { return art, nil })
	e.predict("unit/op", 0, func(int, int) (*trace.Artifact, error) { return art2, nil })
	if len(e.failures) != 1 {
		t.Errorf("digest changing within a run: failures %q", e.failures)
	}
}

func TestOracleSaveRoundTrip(t *testing.T) {
	path := t.TempDir() + "/ref.json"
	if err := os.WriteFile(path, []byte(`{"a": "1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := loadOracle(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.check("b", "2222222222222222"); err != nil {
		t.Fatal(err)
	}
	if err := o.save(path); err != nil {
		t.Fatal(err)
	}
	o, err = loadOracle(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if o.check("a", "1") != nil || o.check("b", "2222222222222222") != nil {
		t.Errorf("saved table = %v", o.ref)
	}
}

func TestMemberOf(t *testing.T) {
	for _, c := range []struct {
		seed          int64
		members, want int
	}{{1, 2, 0}, {2, 2, 1}, {3, 2, 0}, {7, 3, 0}, {0, 3, 2}, {-4, 3, 1}, {5, 1, 0}} {
		if got := memberOf(c.seed, c.members); got != c.want {
			t.Errorf("memberOf(%d, %d) = %d, want %d", c.seed, c.members, got, c.want)
		}
	}
}

// countedInstance records whether it was closed.
type countedInstance struct{ closed *int }

func (c countedInstance) pass(*env, int) error { return nil }
func (c countedInstance) probe(*env) error     { return nil }
func (c countedInstance) close() error         { *c.closed++; return nil }

// A batched set-up sample times the whole batch as one sample and
// closes every instance; a failed set-up still closes the ones before.
func TestBatchedSetupSample(t *testing.T) {
	var made, closed int
	failAt := 0
	wl := &workload{name: "fake", setupBatch: 4, setup: func(*env) (instance, error) {
		made++
		if made == failAt {
			return nil, errors.New("refused")
		}
		return countedInstance{&closed}, nil
	}}
	e := &env{wl: wl}
	res := &runResult{}
	if err := e.timeSetup(res); err != nil {
		t.Fatal(err)
	}
	if made != 4 || closed != 4 || len(res.setupCPU) != 1 || e.setups != 4 {
		t.Fatalf("made %d closed %d samples %d setups %d; want 4 4 1 4", made, closed, len(res.setupCPU), e.setups)
	}
	made, closed, failAt = 0, 0, 3
	if err := e.timeSetup(res); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("err = %v, want the set-up's error", err)
	}
	if closed != 2 || len(res.setupCPU) != 1 {
		t.Fatalf("closed %d samples %d after a failed batch; want 2 1", closed, len(res.setupCPU))
	}
}

func TestDaemonStream(t *testing.T) {
	universe, err := daemonUniverse(`{"mpisim_trace":1}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(universe) != 85 {
		t.Fatalf("universe has %d specs, want 85", len(universe))
	}
	triple := 0
	for _, j := range universe {
		if j.triple != "" {
			triple++
		}
	}
	if triple != 3 {
		t.Errorf("accuracy triple has %d jobs, want 3", triple)
	}
	for _, seed := range []int64{1, 7, 12345} {
		s := daemonStream(universe, seed)
		if len(s) < 100 || len(s) != len(universe)+len(universe)/2 {
			t.Fatalf("seed %d: stream of %d jobs", seed, len(s))
		}
		seen := map[string]bool{}
		repeats := 0
		for _, j := range s {
			if seen[string(j.body)] {
				repeats++
			}
			seen[string(j.body)] = true
		}
		if len(seen) != len(universe) || repeats != len(universe)/2 {
			t.Errorf("seed %d: %d distinct specs, %d repeats", seed, len(seen), repeats)
		}
		again := daemonStream(universe, seed)
		for i := range s {
			if !bytes.Equal(s[i].body, again[i].body) {
				t.Fatalf("seed %d: stream differs at job %d on a second draw", seed, i)
			}
		}
	}
	if bytes.Equal(daemonStream(universe, 1)[0].body, daemonStream(universe, 7)[0].body) &&
		bytes.Equal(daemonStream(universe, 1)[1].body, daemonStream(universe, 7)[1].body) {
		t.Error("seeds 1 and 7 draw the same stream")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's workload and
// metric lists in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i], w.name)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}
