package vec

import (
	"fmt"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/storage"
)

// serveUops is the execution cost of serving one tuple out of a batch —
// bounds check, array load, pointer return — identical to the buffer
// operator's serve path (core.Buffer).
const serveUops = 12

// FromVolcano adapts a Volcano iterator into a batch producer: each
// NextBatch pulls up to a batch of tuples from the child, which instruments
// itself per tuple as usual. The adapter's own cost is modeled with the
// buffer operator's footprint — it IS a buffer refill loop, just surfacing
// the array instead of serving from it — including the buffer's fixed
// setup cost at Open, so mixed vec plans stay comparable with buffered
// Volcano plans.
type FromVolcano struct {
	Child exec.Operator

	module *codemodel.Module // the "Buffer" module
	size   int
	stats  *exec.OpStats

	out    batchBuf
	bits   []uint64
	eof    bool
	opened bool
}

// NewFromVolcano constructs the adapter. size 0 selects DefaultBatchSize;
// module should be the codemodel "Buffer" module (nil uninstrumented).
func NewFromVolcano(child exec.Operator, size int, module *codemodel.Module) *FromVolcano {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &FromVolcano{Child: child, size: size, module: module}
}

// Open implements Operator.
func (f *FromVolcano) Open(ctx *exec.Context) error {
	f.stats = ctx.StatsFor(f)
	if f.stats != nil {
		defer f.stats.EndOpen(ctx, f.stats.Begin(ctx))
	}
	if err := f.Child.Open(ctx); err != nil {
		return err
	}
	f.out.open(ctx, f.size)
	f.eof = false
	if ctx.CPU != nil {
		// Same fixed setup cost as core.Buffer.Open: operator-state
		// initialization plus allocating and zeroing the pointer array.
		ctx.CPU.AddUops(2000 + uint64(f.size*8/16))
		for off := 0; off < f.size*8; off += 64 {
			ctx.CPU.DataWrite(f.out.region+uint64(off), 64)
		}
	}
	f.opened = true
	return nil
}

// NextBatch implements Operator.
func (f *FromVolcano) NextBatch(ctx *exec.Context) (out Batch, err error) {
	if !f.opened {
		return nil, errNotOpen(f.Name())
	}
	if f.stats != nil {
		defer f.stats.EndBatch(ctx, f.stats.Begin(ctx), (*[]storage.Row)(&out))
	}
	if f.eof {
		return nil, nil
	}
	f.out.reset()
	f.bits = f.bits[:0]
	for !f.out.full() {
		row, err := f.Child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if row == nil {
			f.eof = true
			break
		}
		f.bits = append(f.bits, ctx.DataBits(true))
		f.out.append(ctx, row)
	}
	ctx.ExecModuleBatch(f.module, f.bits)
	out = f.out.take()
	if f.stats != nil && len(out) > 0 {
		// Each NextBatch is one refill run over the Volcano subtree.
		f.stats.Drained(len(out))
	}
	return out, nil
}

// Close implements Operator.
func (f *FromVolcano) Close(ctx *exec.Context) error {
	f.opened = false
	return f.Child.Close(ctx)
}

// Schema implements Operator.
func (f *FromVolcano) Schema() storage.Schema { return f.Child.Schema() }

// Children implements Operator: the Volcano subtree (Child) is not part
// of the batch operator tree.
func (f *FromVolcano) Children() []Operator { return nil }

// Name implements Operator.
func (f *FromVolcano) Name() string {
	return fmt.Sprintf("FromVolcano(%s)", f.Child.Name())
}

// ToVolcano adapts a batch producer back into a Volcano iterator: Next
// serves rows out of the current batch and refills by calling the child's
// NextBatch. The serve path costs the same handful of µops as the buffer
// operator's; the refill cost is the child's own amortized instrumentation.
type ToVolcano struct {
	Child Operator

	stats  *exec.OpStats
	batch  Batch
	pos    int
	eof    bool
	opened bool
}

// NewToVolcano constructs the adapter.
func NewToVolcano(child Operator) *ToVolcano {
	return &ToVolcano{Child: child}
}

// Open implements exec.Operator.
func (t *ToVolcano) Open(ctx *exec.Context) error {
	t.stats = ctx.StatsFor(t)
	if t.stats != nil {
		defer t.stats.EndOpen(ctx, t.stats.Begin(ctx))
	}
	t.batch, t.pos, t.eof = nil, 0, false
	t.opened = true
	return t.Child.Open(ctx)
}

// Next implements exec.Operator.
func (t *ToVolcano) Next(ctx *exec.Context) (out storage.Row, err error) {
	if !t.opened {
		return nil, fmt.Errorf("vec: %s.Next called before Open", t.Name())
	}
	if t.stats != nil {
		defer t.stats.EndNext(ctx, t.stats.Begin(ctx), &out)
	}
	for t.pos >= len(t.batch) {
		if t.eof {
			return nil, nil
		}
		batch, err := t.Child.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 {
			t.eof = true
			return nil, nil
		}
		t.batch, t.pos = batch, 0
	}
	if ctx.CPU != nil {
		ctx.CPU.AddUops(serveUops)
	}
	row := t.batch[t.pos]
	t.pos++
	return row, nil
}

// Close implements exec.Operator.
func (t *ToVolcano) Close(ctx *exec.Context) error {
	t.opened = false
	t.batch = nil
	return t.Child.Close(ctx)
}

// Schema implements exec.Operator.
func (t *ToVolcano) Schema() storage.Schema { return t.Child.Schema() }

// Children implements exec.Operator: the batch subtree (Child) is not
// part of the Volcano operator tree.
func (t *ToVolcano) Children() []exec.Operator { return nil }

// Name implements exec.Operator.
func (t *ToVolcano) Name() string {
	return fmt.Sprintf("ToVolcano(%s)", t.Child.Name())
}
