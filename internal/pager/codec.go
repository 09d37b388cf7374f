// Package pager is bufferdb's persistent storage tier: fixed-size slotted
// pages in per-table heap files, an LRU buffer pool, and a write-ahead log
// with LSN-stamped records, fsync-on-commit and replay-on-open crash
// recovery.
//
// The design mirrors the paper's central idea one level down the memory
// hierarchy: the buffer operator keeps *instructions* cache-resident by
// batching operator invocations; the buffer pool keeps *data* resident by
// caching pages — and both are observable through the same obsv counter
// registry (bufferdb_pager_* next to the simulated cache counters).
//
// A Store owns one data directory:
//
//	catalog.json   table schemas + stats (rewritten at every checkpoint)
//	<table>.heap   slotted pages, fixed size, append-only row placement
//	wal.log        write-ahead log since the last checkpoint
//
// Durability protocol: Insert appends per-row WAL records plus a commit
// record and fsyncs the log before touching any page, so a crash at any
// point either replays the whole batch (commit record durable) or discards
// it (torn or commit-less tail). Pages carry the LSN of the last record
// applied to them, making replay idempotent when some dirty pages reached
// disk before the crash and others did not. Checkpoint flushes every dirty
// page, rewrites the catalog, fsyncs the heaps and then resets the log.
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"bufferdb/internal/storage"
)

// ErrCorrupt is the sentinel wrapped by every decode failure — a torn
// page, an over-declared slot count, a truncated value. Callers test it
// with errors.Is; the WAL replayer treats it as the torn tail of the log.
var ErrCorrupt = errors.New("corrupt on-disk data")

// maxColumns bounds the per-row column count a decoder will believe before
// allocating — far above any real schema, far below an allocation attack.
const maxColumns = 4096

// appendRow encodes a row after buf: a uvarint column count, then per
// column a one-byte type tag and the type's payload. Strings carry a
// uvarint length prefix; integers, dates and booleans are zigzag varints;
// floats are 8 fixed bytes.
func appendRow(buf []byte, r storage.Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, v := range r {
		buf = append(buf, byte(v.Kind))
		switch v.Kind {
		case storage.TypeNull:
		case storage.TypeBool, storage.TypeInt64, storage.TypeDate:
			buf = binary.AppendVarint(buf, v.I)
		case storage.TypeFloat64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
		case storage.TypeString:
			buf = binary.AppendUvarint(buf, uint64(len(v.S)))
			buf = append(buf, v.S...)
		default:
			// Unknown kinds cannot occur for analyzer-produced rows; encode
			// as NULL-compatible tag so decode fails loudly rather than
			// silently dropping data.
			panic(fmt.Sprintf("pager: cannot encode value kind %d", v.Kind))
		}
	}
	return buf
}

// decodeRow decodes one encoded row of the schema's arity into dst, storing
// only the columns with need[i] set (nil stores all) — a column nobody reads
// costs no allocation. Skipped columns pass every check stored ones do:
// each length and count is bounded against the remaining input before it is
// believed, so corrupt input errors instead of panicking or over-
// allocating, and a row whose declared column count is not len(dst) is
// corrupt rather than a row of some other shape.
func decodeRow(b []byte, dst storage.Row, need []bool) error {
	ncols, n := binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("pager: %w: bad column count", ErrCorrupt)
	}
	b = b[n:]
	// Each column needs at least its tag byte; a declared count beyond the
	// payload (or the hard cap) is corruption, not a big row.
	if ncols > uint64(len(b)) || ncols > maxColumns {
		return fmt.Errorf("pager: %w: declared %d columns in %d bytes", ErrCorrupt, ncols, len(b))
	}
	if ncols != uint64(len(dst)) {
		return fmt.Errorf("pager: %w: row of %d columns in a table of %d", ErrCorrupt, ncols, len(dst))
	}
	for i := range dst {
		if len(b) == 0 {
			return fmt.Errorf("pager: %w: truncated row at column %d", ErrCorrupt, i)
		}
		kind := storage.Type(b[0])
		b = b[1:]
		keep := need == nil || need[i]
		switch kind {
		case storage.TypeNull:
			if keep {
				dst[i] = storage.Null
			}
		case storage.TypeBool, storage.TypeInt64, storage.TypeDate:
			v, n := binary.Varint(b)
			if n <= 0 {
				return fmt.Errorf("pager: %w: bad integer at column %d", ErrCorrupt, i)
			}
			b = b[n:]
			if keep {
				dst[i] = storage.Value{Kind: kind, I: v}
			}
		case storage.TypeFloat64:
			if len(b) < 8 {
				return fmt.Errorf("pager: %w: truncated float at column %d", ErrCorrupt, i)
			}
			if keep {
				dst[i] = storage.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
			}
			b = b[8:]
		case storage.TypeString:
			sz, n := binary.Uvarint(b)
			if n <= 0 || sz > uint64(len(b)-n) {
				return fmt.Errorf("pager: %w: bad string length at column %d", ErrCorrupt, i)
			}
			b = b[n:]
			if keep {
				dst[i] = storage.NewString(string(b[:sz]))
			}
			b = b[sz:]
		default:
			return fmt.Errorf("pager: %w: unknown value kind %d at column %d", ErrCorrupt, kind, i)
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("pager: %w: %d trailing bytes after row", ErrCorrupt, len(b))
	}
	return nil
}
