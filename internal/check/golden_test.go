package check

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/ir"
	"mpisim/internal/irgen"
)

var update = flag.Bool("update", false, "rewrite testdata/equiv goldens from the current checker")

// goldenCase is one checked configuration of the equivalence goldens.
type goldenCase struct {
	name string
	prog *ir.Program
	opts Options
}

// goldenEntry is the recorded outcome of one configuration: the Result
// JSON and, per rank, a digest of the abstract communication trace.
type goldenEntry struct {
	Config string          `json:"config"`
	Result json.RawMessage `json:"result"`
	Ops    []string        `json:"ops"`
}

// goldenGroups lists the configurations whose checker output must stay
// byte-identical across evaluator changes.
func goldenGroups(t *testing.T) map[string][]goldenCase {
	groups := map[string][]goldenCase{}
	for _, name := range apps.Names() {
		spec := apps.Registry()[name]
		for _, ranks := range []int{1, 4, 16, 64, 256} {
			groups["apps"] = append(groups["apps"], goldenCase{
				name: fmt.Sprintf("%s ranks=%d", name, ranks),
				prog: spec.Build(),
				opts: Options{Ranks: ranks, Inputs: spec.Default(ranks)},
			})
		}
	}
	files, err := filepath.Glob("../../examples/programs/*.ir")
	if err != nil || len(files) == 0 {
		t.Fatalf("example programs: %v (found %d)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, ranks := range []int{1, 4, 16, 64} {
			groups["examples"] = append(groups["examples"], goldenCase{
				name: fmt.Sprintf("%s ranks=%d", filepath.Base(f), ranks),
				prog: p,
				opts: Options{Ranks: ranks, Inputs: map[string]float64{"N": 32, "STEPS": 2}},
			})
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		p, inputs := irgen.Program(seed, irgen.Config{})
		for _, ranks := range []int{1, 3, 4} {
			groups["irgen"] = append(groups["irgen"], goldenCase{
				name: fmt.Sprintf("seed=%d ranks=%d", seed, ranks),
				prog: p,
				opts: Options{Ranks: ranks, Inputs: inputs},
			})
		}
	}
	// Budgeted runs: at MaxOps 50 most of these seeds truncate, at 200
	// none do.
	for seed := int64(0); seed < 10; seed++ {
		p, inputs := irgen.Program(seed, irgen.Config{MaxNests: 6, MaxTimeSteps: 12})
		for _, maxOps := range []int{50, 200} {
			for _, ranks := range []int{3, 4} {
				groups["irgen_maxops"] = append(groups["irgen_maxops"], goldenCase{
					name: fmt.Sprintf("seed=%d ranks=%d maxops=%d", seed, ranks, maxOps),
					prog: p,
					opts: Options{Ranks: ranks, Inputs: inputs, MaxOps: maxOps},
				})
			}
		}
	}
	return groups
}

// opsDigest hashes one rank's trace: every operation's kind, peer, tag,
// element count, may flag, collective key and listing line, plus the
// truncation flag. The digest is shortened to 64 bits.
func opsDigest(ctx *Context, tr *trace) string {
	h := sha256.New()
	for i := range tr.ops {
		o := &tr.ops[i]
		fmt.Fprintf(h, "%d %d %t %d %v %t %t %q %d\n",
			o.kind, o.peer, o.peerKnown, o.tag, o.elems, o.elemsKnown, o.may, o.key, ctx.Lines[o.stmt])
	}
	fmt.Fprintf(h, "truncated=%t ops=%d\n", tr.truncated, len(tr.ops))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func goldenRun(t *testing.T, c goldenCase) goldenEntry {
	res, ctx, err := run(c.prog, c.opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	raw, err := res.JSON()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	e := goldenEntry{Config: c.name, Result: raw}
	for _, tr := range ctx.Traces {
		e.Ops = append(e.Ops, opsDigest(ctx, tr))
	}
	return e
}

// TestCheckGolden pins the checker's Result JSON and every rank's
// abstract trace to the files under testdata/equiv. Regenerate with
// `go test ./internal/check -run TestCheckGolden -update` only when a
// change intends to alter checker output.
func TestCheckGolden(t *testing.T) {
	groups := goldenGroups(t)
	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)
	for _, g := range names {
		t.Run(g, func(t *testing.T) {
			var got []goldenEntry
			for _, c := range groups[g] {
				got = append(got, goldenRun(t, c))
			}
			path := filepath.Join("testdata", "equiv", g+".json")
			if *update {
				raw, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			var want []goldenEntry
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if len(want) != len(got) {
				t.Fatalf("%s: %d configurations recorded, %d checked", path, len(want), len(got))
			}
			for i := range got {
				w, c := want[i], got[i]
				if w.Config != c.Config {
					t.Fatalf("%s entry %d: recorded %q, checked %q", path, i, w.Config, c.Config)
				}
				if !jsonEqual(t, w.Result, c.Result) {
					t.Errorf("%s: Result differs\nwant %s\ngot  %s", c.Config, w.Result, c.Result)
				}
				if len(w.Ops) != len(c.Ops) {
					t.Errorf("%s: %d rank traces recorded, %d built", c.Config, len(w.Ops), len(c.Ops))
					continue
				}
				for r := range c.Ops {
					if w.Ops[r] != c.Ops[r] {
						t.Errorf("%s: rank %d trace digest %s, want %s", c.Config, r, c.Ops[r], w.Ops[r])
						break
					}
				}
			}
		})
	}
}

// jsonEqual compares two JSON documents after compacting whitespace,
// since the goldens store Result JSON re-indented inside their array.
func jsonEqual(t *testing.T, a, b []byte) bool {
	var ca, cb bytes.Buffer
	if err := json.Compact(&ca, a); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&cb, b); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}
