package check

import "fmt"

// passCollective verifies that every rank reaches the same collective
// operations in the same order. The per-rank traces resolve the
// process-set guards exactly, so a collective skipped (or reordered) on
// a subset of ranks — the branch-divergent Barrier/Allreduce defect —
// shows up as diverging definite sequences and is an error. Collectives
// under data-dependent conditions cannot be sequenced definitely and are
// reported as warnings instead.
func passCollective(ctx *Context) []Diagnostic {
	var diags []Diagnostic

	// Data-dependent collectives: warn once per statement.
	warned := map[string]bool{}
	for _, t := range ctx.Traces {
		for i := range t.ops {
			o := &t.ops[i]
			if o.kind != opColl || !o.may {
				continue
			}
			key := fmt.Sprintf("%p", o.stmt)
			if warned[key] {
				continue
			}
			warned[key] = true
			diags = append(diags, ctx.diag("collective", Warning, o.stmt,
				"%s executes under a data-dependent condition; ranks may diverge", o.key))
		}
	}

	// Bcast root sanity (roots are carried on collective ops).
	for _, t := range ctx.Traces {
		for i := range t.ops {
			o := &t.ops[i]
			if o.kind != opColl || o.stmt == nil {
				continue
			}
			if isBcast(o) && o.peerKnown && (o.peer < 0 || o.peer >= ctx.Ranks) {
				d := ctx.diag("collective", Error, o.stmt,
					"bcast root %d is outside the process set 0..%d", o.peer, ctx.Ranks-1)
				d.Ranks = []int{t.rank}
				diags = append(diags, d)
			}
			if isBcast(o) && !o.peerKnown && !o.may {
				diags = append(diags, ctx.diag("collective", Warning, o.stmt,
					"bcast root is data-dependent; ranks may disagree on the root"))
			}
		}
	}

	if ctx.Truncated() {
		diags = append(diags, ctx.diag("collective", Warning, nil,
			"trace truncated by the analysis budget; collective-consistency analysis is incomplete"))
		return diags
	}

	// Definite sequence comparison against rank 0.
	seqs := make([][]*op, ctx.Ranks)
	for r, t := range ctx.Traces {
		for i := range t.ops {
			if o := &t.ops[i]; o.kind == opColl && !o.may {
				seqs[r] = append(seqs[r], o)
			}
		}
	}
	base := seqs[0]
	for r := 1; r < ctx.Ranks; r++ {
		cur := seqs[r]
		limit := len(base)
		if len(cur) < limit {
			limit = len(cur)
		}
		diverged := false
		for i := 0; i < limit; i++ {
			if base[i].key != cur[i].key {
				d := ctx.diag("collective", Error, cur[i].stmt,
					"collective sequence diverges at position %d: rank 0 reaches %s (line %d), rank %d reaches %s",
					i+1, base[i].key, ctx.Lines[base[i].stmt], r, cur[i].key)
				d.Ranks = []int{0, r}
				diags = append(diags, d)
				diverged = true
				break
			}
		}
		if diverged {
			continue
		}
		if len(cur) != len(base) {
			longer, shorter := 0, r
			seq := base
			if len(cur) > len(base) {
				longer, shorter = r, 0
				seq = cur
			}
			extra := seq[limit]
			d := ctx.diag("collective", Error, extra.stmt,
				"rank %d reaches %d collectives but rank %d reaches %d; first unmatched: %s",
				longer, len(seq), shorter, limit, extra.key)
			d.Ranks = []int{0, r}
			diags = append(diags, d)
		}
	}
	return diags
}

func isBcast(o *op) bool {
	return len(o.key) >= 5 && o.key[:5] == "BCAST"
}
