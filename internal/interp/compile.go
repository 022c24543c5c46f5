package interp

import (
	"fmt"
	"math"

	"mpisim/internal/ir"
	"mpisim/internal/mpi"
	"mpisim/internal/symexpr"
)

// dummyBufferName mirrors compiler.DummyBufferName, the shared
// communication stand-in buffer of simplified (MPI-SIM-AM) programs.
// interp cannot import compiler (compiler's in-package tests import
// interp); the compiler's own tests pin the constant's value.
const dummyBufferName = "dummy_buf"

// compiled is a program lowered to closures over a frame. Compilation
// resolves every scalar name to a slot and every array name to an index,
// so execution performs no map lookups.
type compiled struct {
	prog       *ir.Program
	slots      map[string]int
	numScalars int
	slotP      int
	slotMyID   int
	arrays     []*compiledArray
	arrayIdx   map[string]int
	body       []stmtFn
}

type compiledArray struct {
	name   string
	dimFns []exprFn
	elem   int64
}

type stmtFn func(*frame)

type exprFn func(*frame) float64

func compile(p *ir.Program) (cp *compiled, err error) {
	defer func() {
		if r := recover(); r != nil {
			cp = nil
			err = fmt.Errorf("interp: compile %s: %v", p.Name, r)
		}
	}()
	cp = &compiled{
		prog:     p,
		slots:    map[string]int{},
		arrayIdx: map[string]int{},
	}
	cp.slotP = cp.slot(ir.BuiltinP)
	cp.slotMyID = cp.slot(ir.BuiltinMyID)
	for _, par := range p.Params {
		cp.slot(par)
	}
	for i, ad := range p.Arrays {
		ca := &compiledArray{name: ad.Name, elem: ad.Elem}
		for _, de := range ad.Dims {
			ca.dimFns = append(ca.dimFns, cp.expr(de))
		}
		cp.arrays = append(cp.arrays, ca)
		cp.arrayIdx[ad.Name] = i
	}
	cp.body = cp.block(p.Body)
	cp.numScalars = len(cp.slots)
	return cp, nil
}

// slot returns the frame slot for a scalar, allocating on first use.
func (cp *compiled) slot(name string) int {
	if s, ok := cp.slots[name]; ok {
		return s
	}
	s := len(cp.slots)
	cp.slots[name] = s
	return s
}

func (cp *compiled) array(name string) int {
	i, ok := cp.arrayIdx[name]
	if !ok {
		panic(fmt.Sprintf("undeclared array %q", name))
	}
	return i
}

func (cp *compiled) block(body []ir.Stmt) []stmtFn {
	fns := make([]stmtFn, 0, len(body))
	for _, s := range body {
		fns = append(fns, cp.stmt(s))
	}
	return fns
}

// evalSection compiles section bounds to a closure producing evaluated
// integer bounds.
func (cp *compiled) section(sec []ir.Range) func(*frame) [][2]int {
	los := make([]exprFn, len(sec))
	his := make([]exprFn, len(sec))
	for i, rg := range sec {
		los[i] = cp.expr(rg.Lo)
		his[i] = cp.expr(rg.Hi)
	}
	return func(f *frame) [][2]int {
		out := make([][2]int, len(los))
		for i := range los {
			out[i][0] = int(math.Round(los[i](f)))
			out[i][1] = int(math.Round(his[i](f)))
		}
		return out
	}
}

// stackRank is the array rank up to which element accesses evaluate
// their index vector in a stack buffer; higher ranks allocate one.
const stackRank = 8

// indexBuf returns an n-element index vector backed by buf when it fits.
func indexBuf(buf []int, n int) []int {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]int, n)
}

func sectionBytes(bounds [][2]int) int64 {
	return int64(sectionElems(bounds)) * 8
}

func (cp *compiled) stmt(s ir.Stmt) stmtFn {
	switch x := s.(type) {
	case *ir.Assign:
		rhs := cp.expr(x.RHS)
		cost := 1 + ir.OpCount(x.RHS)
		if !x.LHS.IsArray() {
			slot := cp.slot(x.LHS.Name)
			return func(f *frame) {
				f.ops += cost
				f.scalars[slot] = rhs(f)
			}
		}
		ai := cp.array(x.LHS.Name)
		idxFns := make([]exprFn, len(x.LHS.Index))
		for i, e := range x.LHS.Index {
			idxFns[i] = cp.expr(e)
			cost += ir.OpCount(e)
		}
		nd := len(idxFns)
		return func(f *frame) {
			f.ops += cost
			a := f.arrays[ai]
			var buf [stackRank]int
			idx := indexBuf(buf[:], nd)
			for i := range idxFns {
				idx[i] = int(math.Round(idxFns[i](f)))
			}
			a.data[a.linear(idx)] = rhs(f)
		}

	case *ir.For:
		slot := cp.slot(x.Var)
		lo := cp.expr(x.Lo)
		hi := cp.expr(x.Hi)
		body := cp.block(x.Body)
		headCost := ir.OpCount(x.Lo) + ir.OpCount(x.Hi) + 1
		return func(f *frame) {
			f.ops += headCost
			loV := math.Round(lo(f))
			hiV := math.Round(hi(f))
			for v := loV; v <= hiV; v++ {
				f.ops++
				f.scalars[slot] = v
				for _, st := range body {
					st(f)
				}
			}
		}

	case *ir.If:
		cond := cp.expr(x.Cond)
		cost := 1 + ir.OpCount(x.Cond)
		then := cp.block(x.Then)
		els := cp.block(x.Else)
		stmt := x
		return func(f *frame) {
			f.ops += cost
			taken := cond(f) != 0
			if bp := f.cfg.BranchProfile; bp != nil {
				bp.Record(stmt, taken)
			}
			if taken {
				for _, st := range then {
					st(f)
				}
			} else {
				for _, st := range els {
					st(f)
				}
			}
		}

	case *ir.Send:
		dest := cp.expr(x.Dest)
		secFn := cp.section(x.Section)
		ai := cp.array(x.Array)
		tag := x.Tag
		isDummy := x.Array == dummyBufferName
		return func(f *frame) {
			f.flush()
			bounds := secFn(f)
			if sectionElems(bounds) == 0 {
				return
			}
			var payload interface{}
			if !isDummy {
				payload = f.arrays[ai].pack(bounds)
			}
			// Dummy-buffer sends (simplified MPI-SIM-AM programs) carry no
			// payload: the buffer exists only to preserve message sizes, its
			// values are never read (zeros either way), and skipping pack
			// keeps the AM hot path allocation-free. The receive side only
			// unpacks []float64 payloads, so nil is ignored there.
			f.r.Send(int(math.Round(dest(f))), tag, sectionBytes(bounds), payload)
		}

	case *ir.Recv:
		src := cp.expr(x.Src)
		secFn := cp.section(x.Section)
		ai := cp.array(x.Array)
		tag := x.Tag
		return func(f *frame) {
			f.flush()
			bounds := secFn(f)
			if sectionElems(bounds) == 0 {
				return
			}
			_, payload := f.r.RecvSized(int(math.Round(src(f))), tag, sectionBytes(bounds))
			if data, ok := payload.([]float64); ok {
				f.arrays[ai].unpack(bounds, data)
			}
		}

	case *ir.Allreduce:
		slots := make([]int, len(x.Vars))
		for i, v := range x.Vars {
			slots[i] = cp.slot(v)
		}
		var op mpi.ReduceOp
		switch x.Op {
		case "sum":
			op = mpi.OpSum
		case "max":
			op = mpi.OpMax
		case "min":
			op = mpi.OpMin
		}
		return func(f *frame) {
			f.flush()
			vec := make([]float64, len(slots))
			for i, sl := range slots {
				vec[i] = f.scalars[sl]
			}
			out := f.r.Allreduce(vec, int64(len(vec))*8, op)
			// The AbstractComm model transports no values; keep locals.
			if out != nil {
				for i, sl := range slots {
					f.scalars[sl] = out[i]
				}
			}
		}

	case *ir.Bcast:
		root := cp.expr(x.Root)
		slots := make([]int, len(x.Vars))
		for i, v := range x.Vars {
			slots[i] = cp.slot(v)
		}
		return func(f *frame) {
			f.flush()
			rt := int(math.Round(root(f)))
			var vec []float64
			if f.r.Rank() == rt {
				vec = make([]float64, len(slots))
				for i, sl := range slots {
					vec[i] = f.scalars[sl]
				}
			}
			out := f.r.Bcast(rt, vec, int64(len(slots))*8)
			// The AbstractComm model transports no values; keep locals.
			if out != nil {
				for i, sl := range slots {
					f.scalars[sl] = out[i]
				}
			}
		}

	case *ir.Barrier:
		return func(f *frame) {
			f.flush()
			f.r.Barrier()
		}

	case *ir.ReadInput:
		slot := cp.slot(x.Var)
		name := x.Var
		return func(f *frame) {
			v, ok := f.cfg.Inputs[name]
			if !ok {
				panic(fmt.Sprintf("interp: missing program input %q", name))
			}
			f.scalars[slot] = v
		}

	case *ir.Delay:
		sec := cp.expr(x.Seconds)
		task := x.Task
		return func(f *frame) {
			// Delay arguments are simulator work, not target computation:
			// no op charge, and pending target ops flush first so that
			// timing order is preserved.
			f.flush()
			f.r.DelayTask(task, sec(f))
		}

	case *ir.ReadTaskTimes:
		slots := make([]int, len(x.Names))
		for i, n := range x.Names {
			slots[i] = cp.slot(n)
		}
		names := x.Names
		return func(f *frame) {
			f.flush()
			for i, n := range names {
				f.scalars[slots[i]] = f.r.ReadTaskTime(n)
			}
		}

	case *ir.Timed:
		units := cp.expr(x.Units)
		body := cp.block(x.Body)
		id := x.ID
		return func(f *frame) {
			f.flush()
			t0 := f.r.Now()
			for _, st := range body {
				st(f)
			}
			f.flush()
			if f.cfg.Calibration != nil {
				f.cfg.Calibration.Add(id, f.r.Now()-t0, units(f))
			}
		}
	}
	panic(fmt.Sprintf("unknown statement type %T", s))
}

func (cp *compiled) expr(e ir.Expr) exprFn {
	switch x := e.(type) {
	case ir.Num:
		v := x.Value
		return func(*frame) float64 { return v }

	case ir.Scalar:
		slot := cp.slot(x.Name)
		return func(f *frame) float64 { return f.scalars[slot] }

	case ir.Idx:
		ai := cp.array(x.Array)
		idxFns := make([]exprFn, len(x.Index))
		for i, sub := range x.Index {
			idxFns[i] = cp.expr(sub)
		}
		switch len(idxFns) {
		case 1:
			i0 := idxFns[0]
			return func(f *frame) float64 {
				a := f.arrays[ai]
				v := int(math.Round(i0(f)))
				if v < 1 || v > a.dims[0] {
					panic(fmt.Sprintf("interp: index %d out of bounds [1,%d] of %s", v, a.dims[0], a.name))
				}
				return a.data[v-1]
			}
		case 2:
			i0, i1 := idxFns[0], idxFns[1]
			return func(f *frame) float64 {
				a := f.arrays[ai]
				v0 := int(math.Round(i0(f)))
				v1 := int(math.Round(i1(f)))
				if v0 < 1 || v0 > a.dims[0] || v1 < 1 || v1 > a.dims[1] {
					panic(fmt.Sprintf("interp: index (%d,%d) out of bounds of %s", v0, v1, a.name))
				}
				return a.data[(v0-1)*a.dims[1]+(v1-1)]
			}
		default:
			nd := len(idxFns)
			return func(f *frame) float64 {
				a := f.arrays[ai]
				var buf [stackRank]int
				idx := indexBuf(buf[:], nd)
				for i := range idxFns {
					idx[i] = int(math.Round(idxFns[i](f)))
				}
				return a.data[a.linear(idx)]
			}
		}

	case ir.Bin:
		l := cp.expr(x.L)
		r := cp.expr(x.R)
		switch x.Op {
		case ir.OpAdd:
			return func(f *frame) float64 { return l(f) + r(f) }
		case ir.OpSub:
			return func(f *frame) float64 { return l(f) - r(f) }
		case ir.OpMul:
			return func(f *frame) float64 { return l(f) * r(f) }
		default:
			op := x.Op
			return func(f *frame) float64 {
				v, err := symexpr.ApplyOp(op, l(f), r(f))
				if err != nil {
					panic(err.Error())
				}
				return v
			}
		}

	case ir.Call:
		fn := ir.Intrinsics[x.Name]
		if fn == nil {
			panic(fmt.Sprintf("unknown intrinsic %q", x.Name))
		}
		arg := cp.expr(x.Arg)
		return func(f *frame) float64 { return fn(arg(f)) }

	case ir.SumE:
		slot := cp.slot(x.Index)
		lo := cp.expr(x.Lo)
		hi := cp.expr(x.Hi)
		body := cp.expr(x.Body)
		return func(f *frame) float64 {
			loV := math.Round(lo(f))
			hiV := math.Round(hi(f))
			saved := f.scalars[slot]
			total := 0.0
			for v := loV; v <= hiV; v++ {
				f.scalars[slot] = v
				total += body(f)
			}
			f.scalars[slot] = saved
			return total
		}
	}
	panic(fmt.Sprintf("unknown expression type %T", e))
}
