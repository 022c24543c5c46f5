package check

import (
	"fmt"
	"strings"

	"mpisim/internal/ir"
)

// passDeadlock simulates the definite per-rank communication traces to
// completion under two progress models and reports configurations that
// cannot terminate:
//
//   - eager sends (the simulator's model, and the buffered reality of
//     small MPI messages): a send always completes; a receive blocks
//     until a matching message is in flight; collectives block until
//     every rank arrives. A stuck state here is a definite deadlock and
//     is reported as an error, with the wait-for cycle's node path.
//   - synchronous (rendezvous) sends: a send additionally blocks until
//     its matching receive is posted. Programs that only terminate under
//     eager semantics — the classic head-to-head SEND/SEND exchange —
//     are legal for this simulator but unsafe MPI, and are reported as
//     warnings.
//
// Operations with data-dependent peers or conditional execution are
// excluded (they advance unconditionally), so cycles through them are
// not detected; an Info note records this degradation.
func passDeadlock(ctx *Context) []Diagnostic {
	var diags []Diagnostic
	traces := make([][]op, ctx.Ranks)
	excluded := false
	for r, t := range ctx.Traces {
		traces[r] = t.ops
		for i := range t.ops {
			if o := &t.ops[i]; o.may || (o.kind != opColl && !o.peerKnown) {
				excluded = true
			}
		}
	}
	if excluded {
		diags = append(diags, ctx.diag("deadlock", Info, nil,
			"data-dependent communication present; deadlock analysis covers definite operations only"))
	}
	if ctx.Truncated() {
		diags = append(diags, ctx.diag("deadlock", Warning, nil,
			"trace truncated by the analysis budget; deadlock analysis is incomplete"))
		return diags
	}

	if stuck, waits := simulate(ctx, traces, false); stuck {
		// With excluded operations the stuck state may be an analysis
		// artifact, not a certain hang: degrade to a warning.
		sev, prefix := Error, "deadlock: "
		if excluded {
			sev, prefix = Warning, "possible deadlock (approximate analysis): "
		}
		diags = append(diags, reportStuck(ctx, traces, waits, sev, prefix))
		return diags
	}
	if stuck, waits := simulate(ctx, traces, true); stuck {
		diags = append(diags, reportStuck(ctx, traces, waits, Warning,
			"unsafe under synchronous sends: "))
	}
	return diags
}

// waitState is each rank's program counter at the stuck point.
type waitState struct {
	pc []int
}

// simulate advances all ranks until every trace is consumed or no rank
// can progress. rendezvous selects the synchronous-send model. It
// returns the stuck state when the system cannot terminate.
func simulate(ctx *Context, traces [][]op, rendezvous bool) (bool, waitState) {
	n := len(traces)
	pc := make([]int, n)
	type chanKey struct{ from, to, tag int }
	inflight := map[chanKey]int{}

	// skippable reports operations the simulation advances through
	// unconditionally: uncertain ops and out-of-range peers (the latter
	// are sendrecv-pass errors; blocking on them here would duplicate).
	skippable := func(o *op) bool {
		if o.may {
			return true
		}
		if o.kind == opColl {
			return false
		}
		return !o.peerKnown || o.peer < 0 || o.peer >= n
	}

	done := func() bool {
		for r := 0; r < n; r++ {
			if pc[r] < len(traces[r]) {
				return false
			}
		}
		return true
	}

	for {
		progressed := false
		// Point-to-point progress.
		for r := 0; r < n; r++ {
			for pc[r] < len(traces[r]) {
				o := &traces[r][pc[r]]
				if skippable(o) {
					pc[r]++
					progressed = true
					continue
				}
				advanced := false
				switch o.kind {
				case opSend:
					if !rendezvous {
						inflight[chanKey{r, o.peer, o.tag}]++
						advanced = true
					} else if p := o.peer; pc[p] < len(traces[p]) {
						// Synchronous: complete only against a posted
						// matching receive at the peer's current op.
						po := &traces[p][pc[p]]
						if po.kind == opRecv && !skippable(po) && po.peer == r && po.tag == o.tag {
							pc[p]++
							advanced = true
						}
					}
				case opRecv:
					ck := chanKey{o.peer, r, o.tag}
					if !rendezvous {
						if inflight[ck] > 0 {
							inflight[ck]--
							advanced = true
						}
					}
					// Under rendezvous, receives complete from the send
					// side (handled in the opSend case above).
				}
				if !advanced {
					break
				}
				pc[r]++
				progressed = true
			}
		}
		// Collective progress: all unfinished ranks must sit at the same
		// collective.
		allAtColl := true
		var key string
		first := true
		for r := 0; r < n; r++ {
			if pc[r] >= len(traces[r]) {
				allAtColl = false
				break
			}
			o := &traces[r][pc[r]]
			if o.kind != opColl || o.may {
				allAtColl = false
				break
			}
			if first {
				key = o.key
				first = false
			} else if o.key != key {
				allAtColl = false
				break
			}
		}
		if allAtColl && !first {
			for r := 0; r < n; r++ {
				pc[r]++
			}
			progressed = true
		}
		if done() {
			return false, waitState{}
		}
		if !progressed {
			return true, waitState{pc: pc}
		}
	}
}

// reportStuck renders a stuck simulation state as a diagnostic: a
// wait-for cycle when one exists, otherwise the first blocked rank's
// dependency chain.
func reportStuck(ctx *Context, traces [][]op, ws waitState, sev Severity, prefix string) Diagnostic {
	n := len(traces)
	// waitsOn returns the set of ranks the blocked rank is waiting for.
	waitsOn := func(r int) []int {
		if ws.pc[r] >= len(traces[r]) {
			return nil
		}
		o := traces[r][ws.pc[r]]
		switch o.kind {
		case opSend, opRecv:
			if o.peerKnown && o.peer >= 0 && o.peer < n {
				return []int{o.peer}
			}
		case opColl:
			var out []int
			for s := 0; s < n; s++ {
				if s == r {
					continue
				}
				if ws.pc[s] >= len(traces[s]) {
					out = append(out, s)
					continue
				}
				so := traces[s][ws.pc[s]]
				if so.kind != opColl || so.key != o.key {
					out = append(out, s)
				}
			}
			return out
		}
		return nil
	}
	describeAt := func(r int) string {
		if ws.pc[r] >= len(traces[r]) {
			return fmt.Sprintf("rank %d (finished)", r)
		}
		o := traces[r][ws.pc[r]]
		line := ctx.Lines[o.stmt]
		if line > 0 {
			return fmt.Sprintf("rank %d at %s (line %d)", r, o.describe(), line)
		}
		return fmt.Sprintf("rank %d at %s", r, o.describe())
	}

	// DFS for a cycle over the first wait-for edge of each rank.
	cycle := findCycle(n, func(r int) []int { return waitsOn(r) })
	var sb strings.Builder
	sb.WriteString(prefix)
	var anchor op
	haveAnchor := false
	if len(cycle) > 0 {
		parts := make([]string, 0, len(cycle)+1)
		for _, r := range cycle {
			parts = append(parts, describeAt(r))
		}
		parts = append(parts, fmt.Sprintf("rank %d", cycle[0]))
		sb.WriteString("wait-for cycle ")
		sb.WriteString(strings.Join(parts, " -> "))
		if ws.pc[cycle[0]] < len(traces[cycle[0]]) {
			anchor = traces[cycle[0]][ws.pc[cycle[0]]]
			haveAnchor = true
		}
	} else {
		// No cycle: some rank waits on ranks that terminated or diverged.
		for r := 0; r < n; r++ {
			if ws.pc[r] < len(traces[r]) {
				deps := waitsOn(r)
				sb.WriteString(describeAt(r))
				sb.WriteString(" blocks forever")
				if len(deps) > 0 {
					sb.WriteString(fmt.Sprintf(" waiting on rank %d", deps[0]))
				}
				anchor = traces[r][ws.pc[r]]
				haveAnchor = true
				break
			}
		}
	}
	d := Diagnostic{
		Pass: "deadlock", Severity: sev, Program: ctx.Program.Name, Message: sb.String(),
	}
	if haveAnchor && anchor.stmt != nil {
		d.Line = ctx.Lines[anchor.stmt]
		d.Stmt = ir.StmtHead(anchor.stmt)
	}
	return d
}

// findCycle finds a cycle among blocked ranks following wait-for edges,
// returning the ranks along the cycle in order (empty when none).
func findCycle(n int, edges func(int) []int) []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(r int) bool
	dfs = func(r int) bool {
		color[r] = gray
		for _, s := range edges(r) {
			if color[s] == gray {
				// Unwind from r back to s.
				cycle = append(cycle, s)
				for v := r; v != s; v = parent[v] {
					cycle = append(cycle, v)
				}
				// Reverse into forward order.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
			if color[s] == white {
				parent[s] = r
				if dfs(s) {
					return true
				}
			}
		}
		color[r] = black
		return false
	}
	for r := 0; r < n; r++ {
		if color[r] == white && dfs(r) {
			return cycle
		}
	}
	return nil
}
