package check

import "sort"

// passSendRecv matches point-to-point operations across the resolved
// per-rank traces. Every definite (non-"may") send must have a matching
// receive on its destination rank with the same tag, and vice versa;
// resolved peers must lie on the process grid; sizes are compared along
// each (src, dst, tag) channel in FIFO order.
func passSendRecv(ctx *Context) []Diagnostic {
	var diags []Diagnostic

	type chanKey struct {
		from, to, tag int
	}
	type chanOps struct {
		sends, recvs []*op
	}
	channels := map[chanKey]*chanOps{}
	// uncertain is set when any operation has a data-dependent peer or
	// executes conditionally: unmatched counts are then only warnings.
	uncertain := false

	for _, t := range ctx.Traces {
		for i := range t.ops {
			o := &t.ops[i]
			if o.kind != opSend && o.kind != opRecv {
				continue
			}
			if o.may || !o.peerKnown {
				uncertain = true
				continue
			}
			if o.peer < 0 || o.peer >= ctx.Ranks {
				word := "send to"
				if o.kind == opRecv {
					word = "receive from"
				}
				d := ctx.diag("sendrecv", Error, o.stmt,
					"%s rank %d is outside the process set 0..%d", word, o.peer, ctx.Ranks-1)
				d.Ranks = []int{t.rank}
				diags = append(diags, d)
				continue
			}
			if o.kind == opSend {
				if o.peer == t.rank {
					d := ctx.diag("sendrecv", Warning, o.stmt,
						"rank %d sends to itself; blocking self-sends deadlock under synchronous semantics", t.rank)
					d.Ranks = []int{t.rank}
					diags = append(diags, d)
				}
				ck := chanKey{from: t.rank, to: o.peer, tag: o.tag}
				c := channels[ck]
				if c == nil {
					c = &chanOps{}
					channels[ck] = c
				}
				c.sends = append(c.sends, o)
			} else {
				ck := chanKey{from: o.peer, to: t.rank, tag: o.tag}
				c := channels[ck]
				if c == nil {
					c = &chanOps{}
					channels[ck] = c
				}
				c.recvs = append(c.recvs, o)
			}
		}
	}
	if ctx.Truncated() {
		uncertain = true
	}

	unmatchedSev := Error
	if uncertain {
		unmatchedSev = Warning
	}
	qualifier := ""
	if uncertain {
		qualifier = " (analysis is approximate: data-dependent communication present)"
	}

	keys := make([]chanKey, 0, len(channels))
	for k := range channels {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return a.tag < b.tag
	})

	for _, k := range keys {
		c := channels[k]
		ns, nr := len(c.sends), len(c.recvs)
		if ns > nr {
			d := ctx.diag("sendrecv", unmatchedSev, c.sends[nr].stmt,
				"send to rank %d tag %d has no matching receive (%d sends, %d receives from rank %d)%s",
				k.to, k.tag, ns, nr, k.from, qualifier)
			d.Ranks = []int{k.from, k.to}
			diags = append(diags, d)
		} else if nr > ns {
			d := ctx.diag("sendrecv", unmatchedSev, c.recvs[ns].stmt,
				"receive from rank %d tag %d has no matching send (%d receives, %d sends to rank %d)%s",
				k.from, k.tag, nr, ns, k.to, qualifier)
			d.Ranks = []int{k.from, k.to}
			diags = append(diags, d)
		}
		n := ns
		if nr < n {
			n = nr
		}
		for i := 0; i < n; i++ {
			s, r := c.sends[i], c.recvs[i]
			if !s.elemsKnown || !r.elemsKnown || s.elems == r.elems {
				continue
			}
			if s.elems > r.elems {
				d := ctx.diag("sendrecv", Error, r.stmt,
					"message of %g elems from rank %d tag %d overflows the receive section of %g elems",
					s.elems, k.from, k.tag, r.elems)
				d.Ranks = []int{k.from, k.to}
				diags = append(diags, d)
			} else {
				d := ctx.diag("sendrecv", Warning, r.stmt,
					"message of %g elems from rank %d tag %d is smaller than the receive section of %g elems",
					s.elems, k.from, k.tag, r.elems)
				d.Ranks = []int{k.from, k.to}
				diags = append(diags, d)
			}
		}
	}
	return diags
}
