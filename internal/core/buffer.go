// Package core implements the paper's contribution: the light-weight buffer
// operator (§5), instruction-footprint-based execution-group formation and
// the plan refinement algorithm (§6), and the cardinality-threshold
// calibration experiment the refinement rule depends on.
package core

import (
	"fmt"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// DefaultBufferSize is the tuple capacity of a buffer operator. The paper's
// §7.4 sweep finds that a moderate size captures nearly all of the benefit
// (reduced misses ∝ 1/buffersize) while keeping data-cache pressure low;
// it settles on a few hundred to a thousand entries. We default to 1024.
const DefaultBufferSize = 1024

// bufferStartCap is the initial capacity of a buffer's pointer array.
const bufferStartCap = 16

// Buffer is the paper's buffer operator (Figure 6): a plain open-next-close
// iterator that, when asked for a tuple, first fills an array with
// references to tuples pulled from its child, then serves subsequent
// requests from the array without executing any child code. The child
// therefore runs in batches of Size invocations — turning the interleaved
// execution sequence PCPCPC… into PCCCC…CPPPP…P (Figure 1) and keeping each
// operator's instructions and branch-predictor state resident while it runs.
//
// The buffer stores tuple *references*, never copies — tuples stay in the
// child operator's memory until the parent consumes them (§5). Its own
// instruction footprint is under 1 KB (Table 2).
type Buffer struct {
	Child exec.Operator
	// Size is the array capacity in tuples.
	Size int

	module *codemodel.Module
	label  byte
	stats  *exec.OpStats
	fault  *faultinject.Point

	buf     []storage.Row
	memUsed int64
	pos     int
	eof     bool

	// arrayRegion is the simulated address of the pointer array.
	arrayRegion uint64
	opened      bool
}

// NewBuffer wraps child with a buffer of the given size (0 selects
// DefaultBufferSize). module is the buffer's own instruction footprint
// (codemodel "Buffer"); nil runs unmodeled.
func NewBuffer(child exec.Operator, size int, module *codemodel.Module) *Buffer {
	if size <= 0 {
		size = DefaultBufferSize
	}
	return &Buffer{Child: child, Size: size, module: module, label: 'B'}
}

// SetTraceLabel sets the trace label.
func (b *Buffer) SetTraceLabel(l byte) { b.label = l }

// Open implements exec.Operator.
func (b *Buffer) Open(ctx *exec.Context) error {
	b.stats = ctx.StatsFor(b)
	if b.stats != nil {
		defer b.stats.EndOpen(ctx, b.stats.Begin(ctx))
	}
	if err := b.Child.Open(ctx); err != nil {
		return err
	}
	b.fault = ctx.FaultPoint(b, ":next")
	ctx.ShrinkMem(b.memUsed) // reopen without Close: release stale charge
	b.memUsed = 0
	// The pointer array is the buffer's only retained allocation: Size
	// references at 8 bytes each, held until Close.
	if err := ctx.GrowMem(int64(b.Size) * 8); err != nil {
		return err
	}
	b.memUsed = int64(b.Size) * 8
	if b.buf == nil {
		// The array starts small and grows by append up to Size, so a
		// buffer over a handful of rows does not zero a Size-slot array
		// per Open. The charge above and the simulated array below stay
		// Size slots: the model is the paper's fixed array.
		b.buf = make([]storage.Row, 0, min(b.Size, bufferStartCap))
	} else {
		b.buf = b.buf[:0]
	}
	b.pos, b.eof = 0, false
	if ctx.CPU != nil {
		if b.arrayRegion == 0 {
			b.arrayRegion = ctx.CPU.AllocData(b.Size * 8)
		}
		// Fixed setup cost: operator-state initialization plus allocating
		// and zeroing the pointer array. This is the "extra initialization
		// and housekeeping" (paper §7.3) that makes buffering a net loss
		// below the cardinality threshold.
		ctx.CPU.AddUops(2000 + uint64(b.Size*8/16))
		for off := 0; off < b.Size*8; off += 64 {
			ctx.CPU.DataWrite(b.arrayRegion+uint64(off), 64)
		}
	}
	b.opened = true
	return nil
}

// refill drains the child into the array until full or end-of-tuples
// (paper Figure 6, lines 2–6).
func (b *Buffer) refill(ctx *exec.Context) error {
	b.buf = b.buf[:0]
	b.pos = 0
	for len(b.buf) < b.Size {
		row, err := b.Child.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			b.eof = true
			break
		}
		// Store the tuple pointer (8 bytes into the array).
		if b.arrayRegion != 0 {
			ctx.Write(b.arrayRegion+uint64(len(b.buf))*8, 8)
		}
		ctx.ExecModule(b.module, ctx.DataBits(true))
		b.buf = append(b.buf, row)
	}
	if b.stats != nil {
		b.stats.Drained(len(b.buf))
	}
	return nil
}

// Next implements exec.Operator (paper Figure 6).
func (b *Buffer) Next(ctx *exec.Context) (out storage.Row, err error) {
	if !b.opened {
		return nil, fmt.Errorf("exec: Buffer.Next called before Open")
	}
	if b.stats != nil {
		defer b.stats.EndNext(ctx, b.stats.Begin(ctx), &out)
	}
	if ctx.Trace != nil {
		ctx.Trace.Record(b.label, b.Name())
	}
	if err := b.fault.Fire(); err != nil {
		return nil, err
	}
	if b.pos >= len(b.buf) {
		if b.eof {
			return nil, nil
		}
		if err := b.refill(ctx); err != nil {
			return nil, err
		}
		if len(b.buf) == 0 {
			return nil, nil
		}
	}
	// The serve path is a handful of instructions — bounds check, array
	// load, pointer return — which is what makes the operator light-weight
	// (paper: both plans execute within 1 % the same instruction count).
	if ctx.CPU != nil {
		ctx.Read(b.arrayRegion+uint64(b.pos)*8, 8)
		ctx.CPU.AddUops(serveUops)
	}
	row := b.buf[b.pos]
	b.pos++
	return row, nil
}

// serveUops is the execution cost of serving one tuple from the array.
const serveUops = 12

// Close implements exec.Operator. The pointer array is released, not just
// truncated: a truncated slice keeps its backing array, and with it a
// reference to every tuple of the last batch — a large buffer would pin
// those tuples long after the query finished. Open re-makes the array.
func (b *Buffer) Close(ctx *exec.Context) error {
	b.opened = false
	b.buf = nil
	ctx.ShrinkMem(b.memUsed)
	b.memUsed = 0
	return b.Child.Close(ctx)
}

// Schema implements exec.Operator.
func (b *Buffer) Schema() storage.Schema { return b.Child.Schema() }

// Children implements exec.Operator.
func (b *Buffer) Children() []exec.Operator { return []exec.Operator{b.Child} }

// Name implements exec.Operator.
func (b *Buffer) Name() string { return fmt.Sprintf("Buffer(size=%d)", b.Size) }

// CopyBuffer is the ablation variant the paper rejects in §5: it copies
// every tuple into buffer-owned memory instead of storing references. The
// ablation benchmark quantifies the overhead that design would add.
type CopyBuffer struct {
	Buffer
}

// NewCopyBuffer wraps child with a copying buffer.
func NewCopyBuffer(child exec.Operator, size int, module *codemodel.Module) *CopyBuffer {
	cb := &CopyBuffer{}
	cb.Child = child
	cb.Size = size
	if cb.Size <= 0 {
		cb.Size = DefaultBufferSize
	}
	cb.module = module
	cb.label = 'B'
	return cb
}

// Next implements exec.Operator, copying rows on buffering.
func (b *CopyBuffer) Next(ctx *exec.Context) (out storage.Row, err error) {
	if !b.opened {
		return nil, fmt.Errorf("exec: CopyBuffer.Next called before Open")
	}
	if b.stats != nil {
		defer b.stats.EndNext(ctx, b.stats.Begin(ctx), &out)
	}
	if ctx.Trace != nil {
		ctx.Trace.Record(b.label, b.Name())
	}
	if err := b.fault.Fire(); err != nil {
		return nil, err
	}
	if b.pos >= len(b.buf) {
		if b.eof {
			return nil, nil
		}
		if err := b.refillCopying(ctx); err != nil {
			return nil, err
		}
		if len(b.buf) == 0 {
			return nil, nil
		}
	}
	if ctx.CPU != nil {
		ctx.Read(b.arrayRegion+uint64(b.pos)*8, 8)
		ctx.CPU.AddUops(serveUops)
	}
	row := b.buf[b.pos]
	b.pos++
	return row, nil
}

func (b *CopyBuffer) refillCopying(ctx *exec.Context) error {
	b.buf = b.buf[:0]
	b.pos = 0
	copyArena := exec.NewArena(ctx.CPU)
	for len(b.buf) < b.Size {
		row, err := b.Child.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			b.eof = true
			break
		}
		clone := row.Clone()
		// The copy reads the source tuple and writes the clone.
		sz := clone.ByteSize()
		ctx.Write(copyArena.Alloc(sz), sz)
		if ctx.CPU != nil {
			ctx.CPU.AddUops(uint64(sz / 4))
		}
		if b.arrayRegion != 0 {
			ctx.Write(b.arrayRegion+uint64(len(b.buf))*8, 8)
		}
		ctx.ExecModule(b.module, ctx.DataBits(true))
		b.buf = append(b.buf, clone)
	}
	if b.stats != nil {
		b.stats.Drained(len(b.buf))
	}
	return nil
}

// Name implements exec.Operator.
func (b *CopyBuffer) Name() string { return fmt.Sprintf("CopyBuffer(size=%d)", b.Size) }
