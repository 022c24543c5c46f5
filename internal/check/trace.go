package check

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mpisim/internal/ir"
	"mpisim/internal/stg"
	"mpisim/internal/symexpr"
)

// The trace evaluator abstractly executes the program once per rank at
// the checked configuration, producing the rank's sequence of
// communication operations. Values are tracked as known/unknown: inputs
// and rank-arithmetic resolve exactly (the symbolic-process-set case of
// paper §3.3); anything fed by received data or unbound inputs degrades
// to unknown, and communication reached under an unknown condition is
// recorded as a "may" operation, which downstream passes report as
// warnings rather than errors.
//
// Loops whose bodies neither communicate nor define structure-relevant
// variables are skipped wholesale (their definitions are invalidated),
// which is what keeps the analysis linear in the communication structure
// rather than in the iteration space — the checker-side analogue of the
// compiler's condensation.

// val is an abstract scalar value. uniform marks values provably equal
// on every rank (needed to keep values across Bcast).
type val struct {
	known   bool
	uniform bool
	v       float64
}

func known(v float64, uniform bool) val { return val{known: true, uniform: uniform, v: v} }

// opKind classifies trace operations.
type opKind int

// Trace operation kinds.
const (
	opSend opKind = iota
	opRecv
	opColl
)

// op is one communication operation of one rank's trace.
type op struct {
	kind opKind
	stmt ir.Stmt
	// peer is the resolved partner rank (send dest, recv src, bcast
	// root); peerKnown is false when the expression is data-dependent.
	peer      int
	peerKnown bool
	tag       int
	// elems is the section element count when elemsKnown.
	elems      float64
	elemsKnown bool
	// may marks operations reached under an unknown condition.
	may bool
	// key identifies a collective operation (opColl) for consistency
	// matching; the empty string otherwise.
	key string
}

// describe renders the operation for diagnostics.
func (o op) describe() string {
	switch o.kind {
	case opSend:
		if o.peerKnown {
			return fmt.Sprintf("SEND to %d tag %d", o.peer, o.tag)
		}
		return fmt.Sprintf("SEND to ? tag %d", o.tag)
	case opRecv:
		if o.peerKnown {
			return fmt.Sprintf("RECV from %d tag %d", o.peer, o.tag)
		}
		return fmt.Sprintf("RECV from ? tag %d", o.tag)
	default:
		return o.key
	}
}

// boundsHit is a bounds violation observed during abstract execution.
type boundsHit struct {
	stmt ir.Stmt
	msg  string
	rank int
	may  bool
}

// trace is one rank's abstract execution result.
type trace struct {
	rank      int
	ops       []op
	truncated bool
	notes     []Diagnostic
	bounds    []boundsHit
	// dims holds the per-rank evaluated array dimensions.
	dims map[string][]val
}

// arrTrack tracks the contents of a small array whose values can feed
// parallel structure (the NAS SP CSIZE idiom). ok turns false — and the
// whole array becomes unknown — on any untrackable store.
type arrTrack struct {
	ok   bool
	vals map[int]val
}

const (
	// maxTrackedElems bounds per-array value tracking.
	maxTrackedElems = 4096
	// maxSumTrips bounds bounded-summation evaluation.
	maxSumTrips = 4096
	// maxBoundsHits caps recorded bounds violations per rank.
	maxBoundsHits = 64
)

// buildTraces runs the abstract evaluator for every rank. The statement
// facts are computed once here and shared read-only by every rank, so a
// rank's cost is its statement visits alone.
func buildTraces(ctx *Context) []*trace {
	facts := buildFacts(ctx.Program, structuralVars(ctx.Program, ctx.Graph))
	traces := make([]*trace, ctx.Ranks)
	for r := 0; r < ctx.Ranks; r++ {
		traces[r] = newEvaluator(ctx, r, facts).run()
	}
	return traces
}

// stmtFacts holds the properties of statement subtrees that the
// evaluator consults on every loop iteration. They depend only on the IR
// and the structural set.
type stmtFacts struct {
	loops map[*ir.For]loopFacts
	// kills holds, per For and If, the names its subtree defines
	// (including a loop's induction variable), sorted and de-duplicated.
	kills map[ir.Stmt][]string
}

// loopFacts decides whether a loop with a known trip count is unrolled.
type loopFacts struct {
	// comm is set when the body communicates.
	comm bool
	// structural is set when the body or the induction variable defines
	// a structure-relevant variable.
	structural bool
}

// buildFacts computes the facts of every For and If. Each is derived by
// walking the statement's subtree once per Run.
func buildFacts(p *ir.Program, structural map[string]bool) *stmtFacts {
	f := &stmtFacts{loops: map[*ir.For]loopFacts{}, kills: map[ir.Stmt][]string{}}
	ir.Walk(p.Body, func(s ir.Stmt) bool {
		switch x := s.(type) {
		case *ir.For:
			defs := subtreeDefs(s)
			f.loops[x] = loopFacts{comm: ir.HasComm(x.Body), structural: anyIn(defs, structural)}
			f.kills[x] = sortedNames(defs)
		case *ir.If:
			f.kills[x] = sortedNames(subtreeDefs(s))
		}
		return true
	})
	return f
}

// subtreeDefs returns every name the statement, nested bodies included,
// defines.
func subtreeDefs(s ir.Stmt) map[string]bool {
	defs := map[string]bool{}
	ir.Walk([]ir.Stmt{s}, func(st ir.Stmt) bool {
		for d := range ir.StmtDefUse(st).Defs {
			defs[d] = true
		}
		return true
	})
	return defs
}

func anyIn(names, set map[string]bool) bool {
	for n := range names {
		if set[n] {
			return true
		}
	}
	return false
}

// structuralVars computes the set of variable names that can affect
// parallel structure: communication arguments, control headers enclosing
// communication, condensed-task scaling functions, closed under def/use
// dependencies at name granularity. It is computed directly from the IR
// (independently of the slicer, so the slice pass can audit the slicer
// against it).
func structuralVars(p *ir.Program, g *stg.Graph) map[string]bool {
	rel := map[string]bool{}
	add := func(e ir.Expr) {
		if e != nil {
			ir.ScalarsIn(e, rel, rel)
		}
	}
	var seed func(body []ir.Stmt)
	seed = func(body []ir.Stmt) {
		for _, s := range body {
			switch x := s.(type) {
			case *ir.Send:
				add(x.Dest)
				for _, rg := range x.Section {
					add(rg.Lo)
					add(rg.Hi)
				}
			case *ir.Recv:
				add(x.Src)
				for _, rg := range x.Section {
					add(rg.Lo)
					add(rg.Hi)
				}
			case *ir.Bcast:
				add(x.Root)
			case *ir.For:
				if ir.HasComm(x.Body) {
					add(x.Lo)
					add(x.Hi)
				}
				seed(x.Body)
			case *ir.If:
				if ir.HasComm(x.Then) || ir.HasComm(x.Else) {
					add(x.Cond)
				}
				seed(x.Then)
				seed(x.Else)
			case *ir.Timed:
				seed(x.Body)
			case *ir.Delay:
				add(x.Seconds)
			}
		}
	}
	seed(p.Body)
	if g != nil {
		var rec func(ns []*stg.Node)
		rec = func(ns []*stg.Node) {
			for _, n := range ns {
				if n.Kind == stg.KindCondensed {
					add(n.Units)
				}
				rec(n.Children)
				rec(n.Then)
				rec(n.Else)
			}
		}
		rec(g.Roots)
	}
	for changed := true; changed; {
		changed = false
		ir.Walk(p.Body, func(s ir.Stmt) bool {
			du := ir.StmtDefUse(s)
			hit := false
			for d := range du.Defs {
				if rel[d] {
					hit = true
					break
				}
			}
			if hit {
				for u := range du.Uses {
					if !rel[u] {
						rel[u] = true
						changed = true
					}
				}
			}
			return true
		})
	}
	return rel
}

type evaluator struct {
	ctx    *Context
	rank   int
	t      *trace
	env    map[string]val
	arrays map[string]*arrTrack
	facts  *stmtFacts
	// mayDepth > 0 while executing under an unknown condition.
	mayDepth int
	// nonUniform > 0 while executing under a rank-dependent condition;
	// definitions made there cannot be assumed equal across ranks.
	nonUniform int
	budget     int
	// curStmt anchors bounds hits raised inside expression evaluation.
	curStmt ir.Stmt
	// msgElems / dummyElems drive the dummy-buffer size check against
	// the compiler's replaced messages.
	msgElems   map[ir.Stmt]ir.Expr
	dummyElems val
	hitSeen    map[string]bool
	noteSeen   map[string]bool
}

func newEvaluator(ctx *Context, rank int, facts *stmtFacts) *evaluator {
	ev := &evaluator{
		ctx:      ctx,
		rank:     rank,
		facts:    facts,
		env:      map[string]val{},
		arrays:   map[string]*arrTrack{},
		budget:   ctx.Opts.MaxOps,
		hitSeen:  map[string]bool{},
		noteSeen: map[string]bool{},
		t:        &trace{rank: rank, dims: map[string][]val{}},
	}
	ev.env[ir.BuiltinP] = known(float64(ctx.Ranks), true)
	ev.env[ir.BuiltinMyID] = known(float64(rank), false)
	for _, par := range ctx.Program.Params {
		if v, ok := ctx.Opts.Inputs[par]; ok {
			ev.env[par] = known(v, true)
		} else {
			ev.note("input %s is not bound; dependent structure is approximate", par)
		}
	}
	if ctx.Compiled != nil {
		ev.msgElems = ctx.Compiled.Slice.MsgElems
		if ctx.Compiled.DummyElems != nil {
			ev.dummyElems = ev.eval(ctx.Compiled.DummyElems)
		}
	}
	return ev
}

func (ev *evaluator) run() *trace {
	ev.evalDims()
	ev.block(ev.ctx.Program.Body)
	return ev.t
}

// evalDims evaluates every declared dimension in the start environment
// (inputs, P, myid), recording per-rank sizes and preparing small-array
// value tracking.
func (ev *evaluator) evalDims() {
	for _, d := range ev.ctx.Program.Arrays {
		dims := make([]val, len(d.Dims))
		elems := 1.0
		trackable := true
		for i, e := range d.Dims {
			dims[i] = ev.eval(e)
			if !dims[i].known {
				trackable = false
				continue
			}
			if dims[i].v < 1 {
				ev.hit(nil, false, "array %s dimension %d evaluates to %g (non-positive)",
					d.Name, i+1, dims[i].v)
				trackable = false
				continue
			}
			elems *= dims[i].v
		}
		ev.t.dims[d.Name] = dims
		if trackable && elems <= maxTrackedElems {
			ev.arrays[d.Name] = &arrTrack{ok: true, vals: map[int]val{}}
		} else {
			ev.arrays[d.Name] = &arrTrack{}
		}
	}
}

// note records an Info diagnostic about analysis quality, once.
func (ev *evaluator) note(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	if ev.noteSeen[msg] {
		return
	}
	ev.noteSeen[msg] = true
	ev.t.notes = append(ev.t.notes, Diagnostic{
		Pass: "trace", Severity: Info, Program: ev.ctx.Program.Name, Message: msg,
	})
}

// hit records a bounds violation, deduplicated per (stmt, message).
func (ev *evaluator) hit(s ir.Stmt, may bool, format string, args ...interface{}) {
	if len(ev.t.bounds) >= maxBoundsHits {
		return
	}
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%p|%s", s, msg)
	if ev.hitSeen[key] {
		return
	}
	ev.hitSeen[key] = true
	ev.t.bounds = append(ev.t.bounds, boundsHit{stmt: s, msg: msg, rank: ev.rank, may: may || ev.mayDepth > 0})
}

// --- expression evaluation ---

func (ev *evaluator) eval(e ir.Expr) val {
	switch x := e.(type) {
	case ir.Num:
		return known(x.Value, true)
	case ir.Scalar:
		return ev.env[x.Name]
	case ir.Idx:
		return ev.readArray(x)
	case ir.Bin:
		l, r := ev.eval(x.L), ev.eval(x.R)
		if !l.known || !r.known {
			return val{}
		}
		v, err := symexpr.ApplyOp(x.Op, l.v, r.v)
		if err != nil {
			return val{}
		}
		return known(v, l.uniform && r.uniform)
	case ir.Call:
		a := ev.eval(x.Arg)
		fn := ir.Intrinsics[x.Name]
		if !a.known || fn == nil {
			return val{}
		}
		return known(fn(a.v), a.uniform)
	case ir.SumE:
		lo, hi := ev.eval(x.Lo), ev.eval(x.Hi)
		if !lo.known || !hi.known {
			return val{}
		}
		loI, hiI := int64(math.Floor(lo.v)), int64(math.Floor(hi.v))
		if hiI-loI+1 > maxSumTrips {
			return val{}
		}
		saved, had := ev.env[x.Index]
		sum := known(0, lo.uniform && hi.uniform)
		for i := loI; i <= hiI; i++ {
			ev.env[x.Index] = known(float64(i), sum.uniform)
			b := ev.eval(x.Body)
			if !b.known {
				sum = val{}
				break
			}
			sum.v += b.v
			sum.uniform = sum.uniform && b.uniform
		}
		if had {
			ev.env[x.Index] = saved
		} else {
			delete(ev.env, x.Index)
		}
		return sum
	}
	return val{}
}

// flatIndex resolves an index list to a flattened offset, checking each
// subscript against the declared dimension. ok is false when any
// subscript or dimension is unknown.
func (ev *evaluator) flatIndex(stmt ir.Stmt, array string, index []ir.Expr) (int, bool) {
	dims := ev.t.dims[array]
	flat, stride := 0, 1
	ok := true
	for d, e := range index {
		iv := ev.eval(e)
		if !iv.known {
			ok = false
			continue
		}
		if iv.v < 1 {
			ev.hit(stmt, false, "index %g of %s dimension %d is below 1", iv.v, array, d+1)
			ok = false
			continue
		}
		if d < len(dims) && dims[d].known {
			if iv.v > dims[d].v {
				ev.hit(stmt, false, "index %g of %s dimension %d exceeds declared size %g",
					iv.v, array, d+1, dims[d].v)
				ok = false
				continue
			}
			flat += (int(iv.v) - 1) * stride
			stride *= int(dims[d].v)
		} else {
			ok = false
		}
	}
	return flat, ok
}

func (ev *evaluator) readArray(x ir.Idx) val {
	flat, ok := ev.flatIndex(ev.curStmt, x.Array, x.Index)
	tr := ev.arrays[x.Array]
	if !ok || tr == nil || !tr.ok {
		return val{}
	}
	return tr.vals[flat]
}

// killArray invalidates an array's tracked contents.
func (ev *evaluator) killArray(name string) {
	if tr := ev.arrays[name]; tr != nil {
		tr.ok = false
		tr.vals = nil
	}
}

func (ev *evaluator) writeArray(stmt ir.Stmt, name string, index []ir.Expr, v val) {
	flat, ok := ev.flatIndex(stmt, name, index)
	tr := ev.arrays[name]
	if tr == nil || !tr.ok {
		return
	}
	if !ok || ev.mayDepth > 0 {
		// Unknown element touched (or uncertain execution): the whole
		// array becomes unknown.
		ev.killArray(name)
		return
	}
	if ev.nonUniform > 0 {
		v.uniform = false
	}
	tr.vals[flat] = v
}

// --- statement execution ---

func (ev *evaluator) block(body []ir.Stmt) {
	for _, s := range body {
		if ev.truncatedNow() {
			return
		}
		ev.stmt(s)
	}
}

func (ev *evaluator) truncatedNow() bool {
	if ev.budget <= 0 {
		if !ev.t.truncated {
			ev.t.truncated = true
			ev.t.notes = append(ev.t.notes, Diagnostic{
				Pass: "trace", Severity: Warning, Program: ev.ctx.Program.Name,
				Message: fmt.Sprintf("analysis budget exhausted on rank %d; trace truncated (raise MaxOps)", ev.rank),
			})
		}
		return true
	}
	return false
}

func (ev *evaluator) stmt(s ir.Stmt) {
	ev.budget--
	ev.curStmt = s
	switch x := s.(type) {
	case *ir.Assign:
		v := ev.eval(x.RHS)
		if ev.mayDepth > 0 {
			v = val{}
		} else if ev.nonUniform > 0 {
			v.uniform = false
		}
		if x.LHS.IsArray() {
			ev.writeArray(s, x.LHS.Name, x.LHS.Index, v)
		} else {
			ev.env[x.LHS.Name] = v
		}
	case *ir.ReadInput:
		if v, ok := ev.ctx.Opts.Inputs[x.Var]; ok && ev.mayDepth == 0 {
			ev.env[x.Var] = known(v, true)
		} else {
			ev.env[x.Var] = val{}
		}
	case *ir.For:
		ev.forStmt(x)
	case *ir.If:
		ev.ifStmt(x)
	case *ir.Send:
		ev.commStmt(s, opSend, x.Dest, x.Tag, x.Array, x.Section)
	case *ir.Recv:
		ev.commStmt(s, opRecv, x.Src, x.Tag, x.Array, x.Section)
		ev.killArray(x.Array)
	case *ir.Allreduce:
		for _, v := range x.Vars {
			ev.env[v] = val{}
		}
		ev.emit(op{kind: opColl, stmt: s, may: ev.mayDepth > 0,
			key: "ALLREDUCE(" + x.Op + ") " + strings.Join(x.Vars, ", ")})
	case *ir.Bcast:
		ev.bcastStmt(x)
	case *ir.Barrier:
		ev.emit(op{kind: opColl, stmt: s, may: ev.mayDepth > 0, key: "BARRIER"})
	case *ir.Delay:
		ev.eval(x.Seconds)
	case *ir.Timed:
		ev.block(x.Body)
	case *ir.ReadTaskTimes:
		// Runtime preamble: rank 0 reads the calibration table and
		// broadcasts. Values are external, hence unknown; the operation
		// itself synchronizes like a collective.
		for _, n := range x.Names {
			ev.env[n] = val{}
		}
		ev.emit(op{kind: opColl, stmt: s, may: ev.mayDepth > 0,
			key: "READ_TASK_TIMES " + strings.Join(x.Names, ", ")})
	}
}

func (ev *evaluator) emit(o op) { ev.t.ops = append(ev.t.ops, o) }

func (ev *evaluator) commStmt(s ir.Stmt, kind opKind, peerE ir.Expr, tag int, array string, sec []ir.Range) {
	peer := ev.eval(peerE)
	o := op{kind: kind, stmt: s, tag: tag, may: ev.mayDepth > 0}
	if peer.known {
		o.peer = int(peer.v)
		o.peerKnown = true
	}
	dims := ev.t.dims[array]
	elems := 1.0
	elemsKnown := true
	for d, rg := range sec {
		lo, hi := ev.eval(rg.Lo), ev.eval(rg.Hi)
		if lo.known && lo.v < 1 {
			ev.hit(s, false, "section lower bound %g of %s dimension %d is below 1", lo.v, array, d+1)
		}
		if hi.known && d < len(dims) && dims[d].known && hi.v > dims[d].v {
			ev.hit(s, false, "section upper bound %g of %s dimension %d exceeds declared size %g",
				hi.v, array, d+1, dims[d].v)
		}
		if lo.known && hi.known {
			n := hi.v - lo.v + 1
			if n < 0 {
				n = 0
			}
			elems *= n
		} else {
			elemsKnown = false
		}
	}
	if elemsKnown {
		o.elems = elems
		o.elemsKnown = true
		// Compiler dummy-buffer audit: a message the slicer routes
		// through the dummy buffer must fit it.
		if _, replaced := ev.msgElems[s]; replaced && ev.dummyElems.known {
			if elems > ev.dummyElems.v {
				ev.hit(s, false, "replaced message (%g elems) exceeds the dummy buffer (%g elems)",
					elems, ev.dummyElems.v)
			}
		}
	}
	ev.emit(o)
}

func (ev *evaluator) bcastStmt(x *ir.Bcast) {
	root := ev.eval(x.Root)
	o := op{kind: opColl, stmt: x, may: ev.mayDepth > 0}
	rootStr := "?"
	if root.known {
		o.peer = int(root.v)
		o.peerKnown = true
		rootStr = fmt.Sprintf("%d", o.peer)
	}
	o.key = "BCAST root=" + rootStr + ": " + strings.Join(x.Vars, ", ")
	for _, v := range x.Vars {
		cur := ev.env[v]
		switch {
		case ev.mayDepth > 0:
			ev.env[v] = val{}
		case root.known && int(root.v) == ev.rank:
			// The root keeps its own value (it is the source).
		case cur.known && cur.uniform:
			// Provably rank-independent: the broadcast is a no-op.
		default:
			ev.env[v] = val{}
		}
	}
	ev.emit(o)
}

func (ev *evaluator) forStmt(x *ir.For) {
	lo, hi := ev.eval(x.Lo), ev.eval(x.Hi)
	lf := ev.facts.loops[x]
	if lo.known && hi.known && ev.mayDepth == 0 {
		loI, hiI := int64(math.Floor(lo.v)), int64(math.Floor(hi.v))
		if hiI < loI {
			// Zero-trip loop: the body never executes and no state
			// changes beyond the induction variable.
			ev.env[x.Var] = val{}
			return
		}
		if !lf.comm && !lf.structural {
			// Pure computation with no effect on parallel structure:
			// skip the iteration space, invalidate its definitions.
			ev.killDefs(x)
			return
		}
		uniform := lo.uniform && hi.uniform && ev.nonUniform == 0
		for i := loI; i <= hiI; i++ {
			if ev.truncatedNow() {
				return
			}
			ev.env[x.Var] = known(float64(i), uniform)
			ev.block(x.Body)
		}
		ev.env[x.Var] = val{}
		return
	}
	// Unknown trip count (or already uncertain execution).
	if !lf.comm && !lf.structural {
		ev.killDefs(x)
		return
	}
	if lf.comm && ev.mayDepth == 0 {
		ev.note("loop %s has an unknown trip count but communicates; approximating one iteration",
			ir.StmtHead(x))
	}
	ev.mayDepth++
	ev.env[x.Var] = val{}
	ev.block(x.Body)
	ev.mayDepth--
	ev.killDefs(x)
}

func (ev *evaluator) ifStmt(x *ir.If) {
	c := ev.eval(x.Cond)
	if c.known && ev.mayDepth == 0 {
		enterNonUniform := !c.uniform
		if enterNonUniform {
			ev.nonUniform++
		}
		if c.v != 0 {
			ev.block(x.Then)
		} else {
			ev.block(x.Else)
		}
		if enterNonUniform {
			ev.nonUniform--
		}
		return
	}
	// Unknown condition: both arms may execute. Walk both to collect
	// may-operations, then invalidate everything either arm defines.
	ev.mayDepth++
	ev.block(x.Then)
	ev.block(x.Else)
	ev.mayDepth--
	ev.killDefs(x)
}

// killDefs invalidates every variable the statement (including nested
// bodies) defines.
func (ev *evaluator) killDefs(s ir.Stmt) {
	for _, n := range ev.facts.kills[s] {
		if _, isArray := ev.arrays[n]; isArray {
			ev.killArray(n)
		} else {
			ev.env[n] = val{}
		}
	}
}

// sortedNames is a small shared helper for deterministic output.
func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
