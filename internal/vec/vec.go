// Package vec implements a block-oriented (vectorized) query execution
// engine: operators exchange fixed-capacity batches of row references
// instead of single tuples. This is the heavyweight alternative the paper's
// §2 positions the buffer operator against — every operator is rewritten to
// a NextBatch contract, rather than leaving the Volcano iterators untouched
// and inserting buffers between them.
//
// Batch operators drive the same codemodel/cpusim instrumentation as
// internal/exec, but amortized: one instruction-fetch replay per batch
// (the operator's code stays resident while its batch loop runs) with
// execution µops and branch outcomes still paid per tuple
// (exec.Context.ExecModuleBatch). Simulated counters are therefore directly
// comparable with buffered Volcano plans, which pay one full module replay
// per tuple but in batched bursts that keep the cache warm.
//
// Only the hot operators have batch variants (SeqScan, Project,
// HashAggregate, HashJoin, Limit); FromVolcano/ToVolcano adapt the rest,
// so any plan compiles (plan.Compile with EngineVec) and the SQL front end
// needs no changes.
//
// Like push, vec is a reproduction engine that no served statement runs: it
// carries cancellation, stats and reuse adopt/publish, and no fault sites
// or memory charges of its own.
package vec

import (
	"fmt"

	"bufferdb/internal/exec"
	"bufferdb/internal/storage"
)

// DefaultBatchSize is the tuple capacity of a batch, mirroring the buffer
// operator's default (core.DefaultBufferSize) so the two engines batch at
// the same granularity and their comparison isolates the execution model.
const DefaultBatchSize = 1024

// Batch is a block of row references. Like the buffer operator, a batch
// never copies tuples — rows stay in their producer's memory. A returned
// Batch (the slice, not the rows) is only valid until the producer's next
// NextBatch or Close call; consumers that retain rows across calls may keep
// the row references but not the slice.
type Batch []storage.Row

// Operator is the block-oriented iterator contract. NextBatch returns a
// zero-length batch only at end of stream, and keeps returning one if
// called again. An operator may be reopened after Close; Open must reset
// all state.
type Operator interface {
	Open(ctx *exec.Context) error
	NextBatch(ctx *exec.Context) (Batch, error)
	Close(ctx *exec.Context) error
	// Schema describes the rows NextBatch produces.
	Schema() storage.Schema
	// Children returns the input operators, outer first.
	Children() []Operator
	// Name is a short display name for EXPLAIN and traces.
	Name() string
}

// batchBuf is the reusable output vector every batch producer owns: the
// Batch slice plus its simulated pointer-array region, so producing a row
// models the same 8-byte reference store the buffer operator pays. The
// region is allocated once and survives reopens, like the buffer's array.
type batchBuf struct {
	rows   Batch
	size   int
	region uint64
}

// open sizes the vector (0 selects DefaultBatchSize) and places its
// simulated pointer array on first use.
func (b *batchBuf) open(ctx *exec.Context, size int) {
	if size <= 0 {
		size = DefaultBatchSize
	}
	b.size = size
	if cap(b.rows) < size {
		b.rows = make(Batch, 0, size)
	}
	b.rows = b.rows[:0]
	if ctx.CPU != nil && b.region == 0 {
		b.region = ctx.CPU.AllocData(size * 8)
	}
}

func (b *batchBuf) reset()     { b.rows = b.rows[:0] }
func (b *batchBuf) full() bool { return len(b.rows) >= b.size }

// append stores one row reference, modeling the pointer write.
func (b *batchBuf) append(ctx *exec.Context, row storage.Row) {
	if b.region != 0 {
		ctx.Write(b.region+uint64(len(b.rows))*8, 8)
	}
	b.rows = append(b.rows, row)
}

// take returns the accumulated batch, nil when empty.
func (b *batchBuf) take() Batch {
	if len(b.rows) == 0 {
		return nil
	}
	return b.rows
}

// errNotOpen is the shared guard error for operators driven before Open.
func errNotOpen(name string) error {
	return fmt.Errorf("vec: %s.NextBatch called before Open", name)
}
