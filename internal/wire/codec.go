package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"bufferdb/internal/storage"
)

// Builder appends protocol primitives to a growing payload. The zero value
// is ready to use; Bytes returns the accumulated payload.
type Builder struct {
	buf []byte
}

// Bytes returns the built payload.
func (b *Builder) Bytes() []byte { return b.buf }

// Len returns the current payload size.
func (b *Builder) Len() int { return len(b.buf) }

// Reset empties the builder, keeping its capacity.
func (b *Builder) Reset() { b.buf = b.buf[:0] }

// U8 appends a byte.
func (b *Builder) U8(v byte) { b.buf = append(b.buf, v) }

// U16 appends a big-endian uint16.
func (b *Builder) U16(v uint16) { b.buf = binary.BigEndian.AppendUint16(b.buf, v) }

// U32 appends a big-endian uint32.
func (b *Builder) U32(v uint32) { b.buf = binary.BigEndian.AppendUint32(b.buf, v) }

// U64 appends a big-endian uint64.
func (b *Builder) U64(v uint64) { b.buf = binary.BigEndian.AppendUint64(b.buf, v) }

// I64 appends a big-endian int64 (two's complement).
func (b *Builder) I64(v int64) { b.U64(uint64(v)) }

// F64 appends a float64 as IEEE-754 bits.
func (b *Builder) F64(v float64) { b.U64(math.Float64bits(v)) }

// String appends a uint32 length prefix and the string's bytes.
func (b *Builder) String(s string) {
	b.U32(uint32(len(s)))
	b.buf = append(b.buf, s...)
}

// Reader consumes protocol primitives from a payload. Errors are sticky:
// after the first malformed read every later read returns the zero value,
// and Err reports the failure once at the end — mirroring bufio.Scanner's
// usage pattern so per-field error checks don't litter the decoders.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the unread byte count.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated payload reading %s at offset %d", what, r.off)
	}
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail("u8")
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if r.err != nil || r.off+2 > len(r.buf) {
		r.fail("u16")
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail("u32")
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// I64 reads a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U32())
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail("string")
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// Value kind tags for the row codec, one per storage kind.
const (
	valNull  byte = 0
	valBool  byte = 1
	valInt   byte = 2
	valFloat byte = 3
	valStr   byte = 4
	valTime  byte = 5 // unix seconds, rendered UTC
)

// secondsPerDay converts between the engine's DATE (days since the epoch)
// and the wire's valTime (seconds since the epoch).
const secondsPerDay = 86400

// A cell is one row value in wire units: a storage.Value whose DATE payload
// counts seconds, not days. put and cell are the only two functions that
// know which tag byte means which kind and what follows it. The typed entry
// points (Val, Row, DecodeRowBatch — what the session loop and the client
// cursor call) and the any entry points (Value — for holders of native Go
// values: the benchmark's layer spans, tests, tools) both go through them.

// put appends one cell: its kind tag, then the kind's encoding.
func (b *Builder) put(c storage.Value) {
	switch c.Kind {
	case storage.TypeNull:
		b.U8(valNull)
	case storage.TypeBool:
		b.U8(valBool)
		if c.I != 0 {
			b.U8(1)
		} else {
			b.U8(0)
		}
	case storage.TypeInt64:
		b.U8(valInt)
		b.I64(c.I)
	case storage.TypeFloat64:
		b.U8(valFloat)
		b.F64(c.F)
	case storage.TypeDate:
		b.U8(valTime)
		b.I64(c.I)
	case storage.TypeString:
		b.U8(valStr)
		b.String(c.S)
	default:
		// A kind the protocol has no tag for travels as its rendering.
		b.U8(valStr)
		b.String(c.String())
	}
}

// cell reads one cell. A malformed cell sets the sticky error and reads as
// NULL.
func (r *Reader) cell() storage.Value {
	switch k := r.U8(); k {
	case valNull:
		return storage.Null
	case valBool:
		return storage.NewBool(r.U8() != 0)
	case valInt:
		return storage.NewInt(r.I64())
	case valFloat:
		return storage.NewFloat(r.F64())
	case valStr:
		return storage.NewString(r.String())
	case valTime:
		return storage.NewDate(r.I64())
	default:
		if r.err == nil {
			r.err = fmt.Errorf("wire: unknown value kind 0x%02x at offset %d", k, r.off-1)
		}
		return storage.Null
	}
}

// Val appends one row cell from the engine's representation; a DATE
// travels as the seconds of its midnight.
func (b *Builder) Val(v storage.Value) {
	if v.Kind == storage.TypeDate {
		v.I *= secondsPerDay
	}
	b.put(v)
}

// Row appends every cell of one row.
func (b *Builder) Row(row storage.Row) {
	for _, v := range row {
		b.Val(v)
	}
}

// Val reads one row cell into the engine's representation.
func (r *Reader) Val() storage.Value {
	c := r.cell()
	if c.Kind == storage.TypeDate {
		c.I /= secondsPerDay
	}
	return c
}

// Value appends one row cell from a native Go value. Supported types are
// exactly the ones storage.Value.Native produces (nil, bool, int64,
// float64, string, time.Time).
func (b *Builder) Value(v any) error {
	var c storage.Value
	switch x := v.(type) {
	case nil:
	case bool:
		c = storage.NewBool(x)
	case int64:
		c = storage.NewInt(x)
	case float64:
		c = storage.NewFloat(x)
	case string:
		c = storage.NewString(x)
	case time.Time:
		c = storage.NewDate(x.Unix())
	default:
		return fmt.Errorf("wire: cannot encode value of type %T", v)
	}
	b.put(c)
	return nil
}

// Value reads one row cell back into its native Go type.
func (r *Reader) Value() any {
	c := r.cell()
	if c.Kind == storage.TypeDate {
		return time.Unix(c.I, 0).UTC()
	}
	return c.Native()
}

// arenaChunk is the most cells DecodeRowBatch sizes its arena for before any
// of them has decoded. A cell is at least one byte on the wire and 40 in
// memory, so sizing the arena from the declared count alone would let one
// MaxFrame payload of NULL tags ask for 640 MiB in a single make; past the
// chunk the arena grows by append, in proportion to cells actually decoded.
// Batches the server builds (BatchRows × columns, about 64 KiB of payload)
// fit the chunk, so they cost one allocation.
const arenaChunk = 16 << 10

// DecodeRowBatch decodes a RowBatch payload — a uint32 row count, then that
// many rows of cols cells — into one fresh arena: row i is
// arena[i*cols:(i+1)*cols], and since nothing ever rewrites the arena a row
// stays valid for as long as its holder keeps it. The declared count is
// bounded against the payload before anything is allocated — every row
// costs at least one kind-tag byte per column — so a frame claiming
// billions of rows is rejected for the price of a division, and decoding
// stops at the first malformed cell.
func DecodeRowBatch(p []byte, cols int) (arena []storage.Value, rows int, err error) {
	r := Reader{buf: p}
	rows = int(r.U32())
	if rows > r.Remaining()/max(cols, 1) {
		return nil, 0, fmt.Errorf("%d rows declared in %d payload bytes", rows, len(p))
	}
	cells := rows * cols
	arena = make([]storage.Value, 0, min(cells, arenaChunk))
	for len(arena) < cells && r.err == nil {
		arena = append(arena, r.Val())
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	return arena, rows, nil
}

// TableInfo is one catalog table as a TablesOK frame reports it.
type TableInfo struct {
	Name string
	Rows uint64
}

// QueryOpts is the per-statement tuning a client ships with TQuery. The
// zero value means "server defaults". A served statement always runs the
// server's one plan shape (Volcano, refined), so nothing here changes the
// plan.
type QueryOpts struct {
	// TimeoutMS bounds the query's wall clock in milliseconds (0 = none).
	TimeoutMS int64
	// NoResultCache opts this statement out of the server's result-reuse
	// cache even when the server has it enabled.
	NoResultCache bool
	// MemoryBudget caps the query's tracked allocations in bytes
	// (0 = no per-query cap; the server's MemoryLimit still applies).
	MemoryBudget int64
	// Slice addresses one hash slice on a server hosting several replicas:
	// 0 targets the server's default (primary) slice, k>0 targets slice
	// index k-1. Servers reject slices they do not host.
	Slice int32
}

// optNoResultCache is the one bit of the options' flags byte.
const optNoResultCache byte = 1 << 0

// Opts appends an encoded QueryOpts: the flags byte, the timeout, the
// memory budget and the slice. Every field is always encoded, so decode
// never depends on which options the client happened to set.
func (b *Builder) Opts(o QueryOpts) {
	var flags byte
	if o.NoResultCache {
		flags |= optNoResultCache
	}
	b.U8(flags)
	b.I64(o.TimeoutMS)
	b.I64(o.MemoryBudget)
	b.U32(uint32(o.Slice))
}

// Opts reads an encoded QueryOpts.
func (r *Reader) Opts() QueryOpts {
	flags := r.U8()
	return QueryOpts{
		TimeoutMS:     r.I64(),
		MemoryBudget:  r.I64(),
		Slice:         int32(r.U32()),
		NoResultCache: flags&optNoResultCache != 0,
	}
}

// CacheKey renders the slice alongside a statement's identity
// (sql.Shape.Identity), for the server's result cache; per-execution knobs
// like the timeout or memory budget stay out. Slice participates because
// each slice is a distinct catalog: one statement over slice 0 and slice 2
// reads different data.
func (o QueryOpts) CacheKey(identity string) string {
	return fmt.Sprintf("%d|%s", o.Slice, identity)
}
