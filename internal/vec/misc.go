package vec

import (
	"fmt"

	"bufferdb/internal/exec"
	"bufferdb/internal/storage"
)

// Limit passes through the first N rows of its child, truncating the final
// batch. Like exec.Limit it is too small to model.
type Limit struct {
	Child Operator
	N     int

	stats   *exec.OpStats
	emitted int
	opened  bool
}

// NewLimit constructs the operator.
func NewLimit(child Operator, n int) *Limit {
	return &Limit{Child: child, N: n}
}

// Open implements Operator.
func (l *Limit) Open(ctx *exec.Context) error {
	l.stats = ctx.StatsFor(l)
	if l.stats != nil {
		defer l.stats.EndOpen(ctx, l.stats.Begin(ctx))
	}
	l.emitted = 0
	l.opened = true
	return l.Child.Open(ctx)
}

// NextBatch implements Operator.
func (l *Limit) NextBatch(ctx *exec.Context) (out Batch, err error) {
	if !l.opened {
		return nil, errNotOpen(l.Name())
	}
	if l.stats != nil {
		defer l.stats.EndBatch(ctx, l.stats.Begin(ctx), (*[]storage.Row)(&out))
	}
	if l.emitted >= l.N {
		return nil, nil
	}
	batch, err := l.Child.NextBatch(ctx)
	if err != nil || len(batch) == 0 {
		return nil, err
	}
	if l.emitted+len(batch) > l.N {
		batch = batch[:l.N-l.emitted]
	}
	l.emitted += len(batch)
	return batch, nil
}

// Close implements Operator.
func (l *Limit) Close(ctx *exec.Context) error {
	l.opened = false
	return l.Child.Close(ctx)
}

// Schema implements Operator.
func (l *Limit) Schema() storage.Schema { return l.Child.Schema() }

// Children implements Operator.
func (l *Limit) Children() []Operator { return []Operator{l.Child} }

// Name implements Operator.
func (l *Limit) Name() string { return fmt.Sprintf("VecLimit(%d)", l.N) }
