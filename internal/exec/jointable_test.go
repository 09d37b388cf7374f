package exec

import (
	"errors"
	"testing"
	"time"

	"bufferdb/internal/storage"
)

type named string

func (n named) Name() string { return string(n) }

// TestJoinTableReadOnlyOnceShared: the layout is written by one operator,
// until it publishes; neither it nor an adopter can insert afterwards, and
// an adopter is charged nothing.
func TestJoinTableReadOnlyOnceShared(t *testing.T) {
	ctx := &Context{Mem: NewMemTracker("q", 0, nil)}
	row := storage.Row{storage.NewInt(7)}
	var published *JoinTable
	var bytes int64
	miss := &SharedBuild{Publish: func(jt *JoinTable, b int64, _ time.Duration) { published, bytes = jt, b }}

	var builder JoinTable
	builder.SetShared(miss)
	builder.Open(ctx, named("j"))
	if builder.Adopted() {
		t.Fatal("a miss adopted something")
	}
	if err := builder.Insert(ctx, 7, row); err != nil {
		t.Fatal(err)
	}
	if err := builder.Finish(); err != nil {
		t.Fatal(err)
	}
	if published == nil || published.Len() != 1 || bytes != ctx.Mem.Bytes() || bytes == 0 {
		t.Fatalf("published %v for %d bytes, %d charged", published, bytes, ctx.Mem.Bytes())
	}
	if err := builder.Insert(ctx, 8, row); !errors.Is(err, ErrJoinTableReadOnly) {
		t.Fatalf("insert after publish: %v", err)
	}

	var adopter JoinTable
	adopter.SetShared(&SharedBuild{Table: published})
	adopter.Open(ctx, named("j"))
	if !adopter.Adopted() {
		t.Fatal("a hit was not adopted")
	}
	if err := adopter.Insert(ctx, 8, row); !errors.Is(err, ErrJoinTableReadOnly) {
		t.Fatalf("insert into an adopted table: %v", err)
	}
	if got := adopter.Probe(ctx, 7); len(got) != 1 || &got[0][0] != &row[0] || published.Len() != 1 {
		t.Fatalf("adopter sees %v, table has %d rows", got, published.Len())
	}
	adopter.Close(ctx)
	if got := ctx.Mem.Bytes(); got != bytes {
		t.Fatalf("the adopter moved the charge from %d to %d", bytes, got)
	}
	builder.Close(ctx)
	if got := ctx.Mem.Bytes(); got != 0 || published.Len() != 1 {
		t.Fatalf("after Close: %d bytes charged, published table has %d rows", got, published.Len())
	}
}
