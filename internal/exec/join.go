package exec

import (
	"fmt"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/expr"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// NestLoopJoin is an (index) nested-loop join: for each outer tuple it
// rescans the inner operator with the outer key and emits the
// concatenation of outer and inner rows.
type NestLoopJoin struct {
	Outer    Operator
	Inner    Rescannable
	OuterKey expr.Expr
	// Residual is an optional extra predicate over the concatenated row.
	Residual expr.Expr

	module *codemodel.Module
	label  byte
	stats  *OpStats
	fault  *faultinject.Point
	arena  *Arena
	schema storage.Schema

	outerRow storage.Row
	opened   bool
}

// NewNestLoopJoin constructs the join. module may be nil.
func NewNestLoopJoin(outer Operator, inner Rescannable, outerKey expr.Expr, residual expr.Expr, module *codemodel.Module) *NestLoopJoin {
	return &NestLoopJoin{
		Outer:    outer,
		Inner:    inner,
		OuterKey: outerKey,
		Residual: residual,
		module:   module,
		label:    'N',
		schema:   outer.Schema().Concat(inner.Schema()),
	}
}

// SetTraceLabel sets the trace label.
func (j *NestLoopJoin) SetTraceLabel(b byte) { j.label = b }

// Open implements Operator.
func (j *NestLoopJoin) Open(ctx *Context) error {
	j.stats = ctx.StatsFor(j)
	if j.stats != nil {
		defer j.stats.EndOpen(ctx, j.stats.Begin(ctx))
	}
	if err := j.Outer.Open(ctx); err != nil {
		return err
	}
	if err := j.Inner.Open(ctx); err != nil {
		return err
	}
	j.fault = ctx.FaultPoint(j, ":next")
	j.arena = NewArena(ctx.CPU)
	j.outerRow = nil
	j.opened = true
	return nil
}

// Next implements Operator.
func (j *NestLoopJoin) Next(ctx *Context) (res storage.Row, err error) {
	if !j.opened {
		return nil, errNotOpen(j.Name())
	}
	if j.stats != nil {
		defer j.stats.EndNext(ctx, j.stats.Begin(ctx), &res)
	}
	if ctx.Trace != nil {
		ctx.Trace.Record(j.label, j.Name())
	}
	if err := j.fault.Fire(); err != nil {
		return nil, err
	}
	for {
		if j.outerRow == nil {
			row, err := j.Outer.Next(ctx)
			if err != nil {
				return nil, err
			}
			if row == nil {
				return nil, nil
			}
			j.outerRow = row
			key, ok, err := JoinKey(j.OuterKey, row)
			if err != nil {
				return nil, err
			}
			if !ok {
				// NULL key joins nothing.
				j.outerRow = nil
				continue
			}
			if err := j.Inner.Rescan(storage.NewInt(key)); err != nil {
				return nil, err
			}
		}
		inner, err := j.Inner.Next(ctx)
		if err != nil {
			return nil, err
		}
		if inner == nil {
			j.outerRow = nil
			ctx.ExecModule(j.module, ctx.DataBits(false))
			continue
		}
		out := j.outerRow.Concat(inner)
		if j.Residual != nil {
			match, err := expr.EvalBool(j.Residual, out)
			if err != nil {
				return nil, err
			}
			if !match {
				ctx.ExecModule(j.module, ctx.DataBits(false))
				continue
			}
		}
		ctx.ExecModule(j.module, ctx.DataBits(true))
		ctx.Write(j.arena.Alloc(out.ByteSize()), out.ByteSize())
		return out, nil
	}
}

// Close implements Operator.
func (j *NestLoopJoin) Close(ctx *Context) error {
	j.opened = false
	err1 := j.Outer.Close(ctx)
	err2 := j.Inner.Close(ctx)
	if err1 != nil {
		return err1
	}
	return err2
}

// Schema implements Operator.
func (j *NestLoopJoin) Schema() storage.Schema { return j.schema }

// Children implements Operator.
func (j *NestLoopJoin) Children() []Operator { return []Operator{j.Outer, j.Inner} }

// Name implements Operator.
func (j *NestLoopJoin) Name() string {
	return fmt.Sprintf("NestLoopJoin(key=%s)", j.OuterKey.String())
}

// HashJoin is an in-memory equi-hash-join. Open drains the build (inner)
// side into a hash table — the blocking build phase, a separate module in
// the paper's footprint analysis — and Next streams the probe (outer) side.
type HashJoin struct {
	Outer    Operator // probe side
	Inner    Operator // build side
	OuterKey expr.Expr
	InnerKey expr.Expr

	buildModule *codemodel.Module
	probeModule *codemodel.Module
	label       byte
	stats       *OpStats
	fault       *faultinject.Point
	arena       *Arena
	schema      storage.Schema
	table       JoinTable

	current    []storage.Row
	currentPos int
	outerRow   storage.Row
	opened     bool
}

// NewHashJoin constructs the join; modules may be nil.
func NewHashJoin(outer, inner Operator, outerKey, innerKey expr.Expr, buildModule, probeModule *codemodel.Module) *HashJoin {
	return &HashJoin{
		Outer:       outer,
		Inner:       inner,
		OuterKey:    outerKey,
		InnerKey:    innerKey,
		buildModule: buildModule,
		probeModule: probeModule,
		label:       'H',
		schema:      outer.Schema().Concat(inner.Schema()),
	}
}

// SetTraceLabel sets the trace label.
func (j *HashJoin) SetTraceLabel(b byte) { j.label = b }

// SetShared wires the build side to the semantic reuse cache; see
// SharedBuild. Must be set before Open.
func (j *HashJoin) SetShared(sb *SharedBuild) { j.table.SetShared(sb) }

// Open implements Operator: it runs the build phase.
func (j *HashJoin) Open(ctx *Context) error {
	j.stats = ctx.StatsFor(j)
	if j.stats != nil {
		defer j.stats.EndOpen(ctx, j.stats.Begin(ctx))
	}
	if err := j.Outer.Open(ctx); err != nil {
		return err
	}
	if err := j.Inner.Open(ctx); err != nil {
		return err
	}
	j.fault = ctx.FaultPoint(j, ":next")
	j.arena = NewArena(ctx.CPU)
	j.current, j.outerRow = nil, nil
	j.currentPos = 0
	if j.table.Open(ctx, j); j.table.Adopted() {
		// Reuse-cache hit: the build input is never touched.
		j.opened = true
		return nil
	}
	for {
		// The build is a blocking loop: poll cancellation and deadlines so
		// a large build aborts promptly instead of outliving its query.
		if err := ctx.Canceled(); err != nil {
			return err
		}
		if err := j.table.BuildFault(); err != nil {
			return err
		}
		row, err := j.Inner.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		key, ok, err := JoinKey(j.InnerKey, row)
		if err != nil {
			return err
		}
		ctx.ExecModule(j.buildModule, ctx.DataBits(ok))
		if !ok {
			continue
		}
		if err := j.table.Insert(ctx, key, row); err != nil {
			return err
		}
	}
	if err := j.table.Finish(); err != nil {
		return err
	}
	j.opened = true
	return nil
}

// Next implements Operator: the probe phase.
func (j *HashJoin) Next(ctx *Context) (res storage.Row, err error) {
	if !j.opened {
		return nil, errNotOpen(j.Name())
	}
	if j.stats != nil {
		defer j.stats.EndNext(ctx, j.stats.Begin(ctx), &res)
	}
	if ctx.Trace != nil {
		ctx.Trace.Record(j.label, j.Name())
	}
	if err := j.fault.Fire(); err != nil {
		return nil, err
	}
	for {
		if j.currentPos < len(j.current) {
			inner := j.current[j.currentPos]
			j.currentPos++
			out := j.outerRow.Concat(inner)
			ctx.ExecModule(j.probeModule, ctx.DataBits(true))
			j.table.Advance(ctx)
			ctx.Write(j.arena.Alloc(out.ByteSize()), out.ByteSize())
			return out, nil
		}
		row, err := j.Outer.Next(ctx)
		if err != nil {
			return nil, err
		}
		if row == nil {
			return nil, nil
		}
		key, ok, err := JoinKey(j.OuterKey, row)
		if err != nil {
			return nil, err
		}
		if !ok {
			ctx.ExecModule(j.probeModule, ctx.DataBits(false))
			continue
		}
		matches := j.table.Probe(ctx, key)
		ctx.ExecModule(j.probeModule, ctx.DataBits(len(matches) > 0))
		j.outerRow = row
		j.current = matches
		j.currentPos = 0
	}
}

// Close implements Operator.
func (j *HashJoin) Close(ctx *Context) error {
	j.opened = false
	j.table.Close(ctx)
	err1 := j.Outer.Close(ctx)
	err2 := j.Inner.Close(ctx)
	if err1 != nil {
		return err1
	}
	return err2
}

// Schema implements Operator.
func (j *HashJoin) Schema() storage.Schema { return j.schema }

// Children implements Operator.
func (j *HashJoin) Children() []Operator { return []Operator{j.Outer, j.Inner} }

// Name implements Operator.
func (j *HashJoin) Name() string {
	return fmt.Sprintf("HashJoin(%s = %s)", j.OuterKey.String(), j.InnerKey.String())
}

// MergeJoin joins two inputs sorted on their keys. Duplicate right-side key
// groups are buffered so every left row of a key joins the full group.
type MergeJoin struct {
	Left     Operator
	Right    Operator
	LeftKey  expr.Expr
	RightKey expr.Expr

	module *codemodel.Module
	label  byte
	stats  *OpStats
	fault  *faultinject.Point
	arena  *Arena
	schema storage.Schema

	leftRow   storage.Row
	leftKey   int64
	rightRow  storage.Row // lookahead
	rightKey  int64
	group     []storage.Row
	groupKey  int64
	groupPos  int
	rightDone bool
	opened    bool
}

// NewMergeJoin constructs the join; module may be nil.
func NewMergeJoin(left, right Operator, leftKey, rightKey expr.Expr, module *codemodel.Module) *MergeJoin {
	return &MergeJoin{
		Left:     left,
		Right:    right,
		LeftKey:  leftKey,
		RightKey: rightKey,
		module:   module,
		label:    'M',
		schema:   left.Schema().Concat(right.Schema()),
	}
}

// SetTraceLabel sets the trace label.
func (j *MergeJoin) SetTraceLabel(b byte) { j.label = b }

// Open implements Operator.
func (j *MergeJoin) Open(ctx *Context) error {
	j.stats = ctx.StatsFor(j)
	if j.stats != nil {
		defer j.stats.EndOpen(ctx, j.stats.Begin(ctx))
	}
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.Right.Open(ctx); err != nil {
		return err
	}
	j.fault = ctx.FaultPoint(j, ":next")
	j.arena = NewArena(ctx.CPU)
	j.leftRow, j.rightRow, j.group = nil, nil, nil
	j.groupPos, j.rightDone = 0, false
	j.opened = true
	return nil
}

// advanceLeft pulls the next left row and its key.
func (j *MergeJoin) advanceLeft(ctx *Context) error {
	for {
		row, err := j.Left.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			j.leftRow = nil
			return nil
		}
		key, ok, err := JoinKey(j.LeftKey, row)
		if err != nil {
			return err
		}
		ctx.ExecModule(j.module, ctx.DataBits(ok))
		if !ok {
			continue // NULL keys join nothing
		}
		j.leftRow, j.leftKey = row, key
		return nil
	}
}

// advanceRight pulls the next right row into the lookahead slot.
func (j *MergeJoin) advanceRight(ctx *Context) error {
	for {
		row, err := j.Right.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			j.rightRow = nil
			j.rightDone = true
			return nil
		}
		key, ok, err := JoinKey(j.RightKey, row)
		if err != nil {
			return err
		}
		ctx.ExecModule(j.module, ctx.DataBits(ok))
		if !ok {
			continue
		}
		j.rightRow, j.rightKey = row, key
		return nil
	}
}

// loadGroup collects all right rows equal to the lookahead key.
func (j *MergeJoin) loadGroup(ctx *Context) error {
	j.group = j.group[:0]
	j.groupKey = j.rightKey
	for j.rightRow != nil && j.rightKey == j.groupKey {
		j.group = append(j.group, j.rightRow)
		if err := j.advanceRight(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Next implements Operator.
func (j *MergeJoin) Next(ctx *Context) (res storage.Row, err error) {
	if !j.opened {
		return nil, errNotOpen(j.Name())
	}
	if j.stats != nil {
		defer j.stats.EndNext(ctx, j.stats.Begin(ctx), &res)
	}
	if ctx.Trace != nil {
		ctx.Trace.Record(j.label, j.Name())
	}
	if err := j.fault.Fire(); err != nil {
		return nil, err
	}
	// Prime inputs on the first call.
	if j.leftRow == nil && j.group == nil && !j.rightDone {
		if err := j.advanceLeft(ctx); err != nil {
			return nil, err
		}
		if err := j.advanceRight(ctx); err != nil {
			return nil, err
		}
		if j.rightRow != nil {
			if err := j.loadGroup(ctx); err != nil {
				return nil, err
			}
		}
	}
	for {
		if j.leftRow == nil || (len(j.group) == 0 && j.rightDone) {
			return nil, nil
		}
		switch {
		case j.leftKey == j.groupKey && len(j.group) > 0:
			if j.groupPos < len(j.group) {
				out := j.leftRow.Concat(j.group[j.groupPos])
				j.groupPos++
				ctx.ExecModule(j.module, ctx.DataBits(true))
				ctx.Write(j.arena.Alloc(out.ByteSize()), out.ByteSize())
				return out, nil
			}
			j.groupPos = 0
			if err := j.advanceLeft(ctx); err != nil {
				return nil, err
			}
		case j.leftKey < j.groupKey || len(j.group) == 0:
			if err := j.advanceLeft(ctx); err != nil {
				return nil, err
			}
		default: // leftKey > groupKey
			if j.rightRow == nil {
				return nil, nil
			}
			if err := j.loadGroup(ctx); err != nil {
				return nil, err
			}
			j.groupPos = 0
		}
	}
}

// Close implements Operator.
func (j *MergeJoin) Close(ctx *Context) error {
	j.opened = false
	err1 := j.Left.Close(ctx)
	err2 := j.Right.Close(ctx)
	if err1 != nil {
		return err1
	}
	return err2
}

// Schema implements Operator.
func (j *MergeJoin) Schema() storage.Schema { return j.schema }

// Children implements Operator.
func (j *MergeJoin) Children() []Operator { return []Operator{j.Left, j.Right} }

// Name implements Operator.
func (j *MergeJoin) Name() string {
	return fmt.Sprintf("MergeJoin(%s = %s)", j.LeftKey.String(), j.RightKey.String())
}
