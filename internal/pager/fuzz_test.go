package pager

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"bufferdb/internal/storage"
)

// fuzzArity is the arity a schema-less decode of data must be attempted
// with: the count the bytes declare, or 0 when they declare none a decoder
// may believe (decoding then fails whatever the arity).
func fuzzArity(data []byte) int {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > maxColumns {
		return 0
	}
	return int(n)
}

// FuzzRowCodec throws arbitrary bytes and an arbitrary column mask at the
// row decoder. Corrupt input must error (never panic, never allocate past
// the declared bounds); anything that decodes must survive a re-encode/
// re-decode round trip; a masked decode must fail exactly when the full
// decode fails — skipped columns are checked like stored ones — and agree
// with it on every column in the mask while leaving the others untouched;
// and the same bytes must be corrupt for a table of any other arity.
func FuzzRowCodec(f *testing.F) {
	valid := appendRow(nil, storage.Row{
		storage.NewInt(42),
		storage.NewString("hello"),
		storage.Null,
		storage.NewFloat(3.25),
		{Kind: storage.TypeBool, I: 1},
		{Kind: storage.TypeDate, I: 9215},
	})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0x01}, []byte{0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0x01}) // huge declared column count
	f.Add(valid, []byte{})
	f.Add(valid, []byte{0b101001})
	f.Add(valid[:len(valid)-1], []byte{0x01}) // truncated in a column the mask skips
	f.Add(append(append([]byte{}, valid...), 0), []byte{0x00})
	f.Fuzz(func(t *testing.T, data, maskBits []byte) {
		arity := fuzzArity(data)
		row := make(storage.Row, arity)
		err := decodeRow(data, row, nil)

		need := make([]bool, arity)
		for i := range need {
			need[i] = len(maskBits) > 0 && maskBits[(i/8)%len(maskBits)]>>(i%8)&1 == 1
		}
		marker := storage.NewString("untouched")
		masked := make(storage.Row, arity)
		for i := range masked {
			masked[i] = marker
		}
		maskedErr := decodeRow(data, masked, need)
		if (err == nil) != (maskedErr == nil) {
			t.Fatalf("full decode: %v; masked decode (mask %v): %v", err, need, maskedErr)
		}
		if wider := decodeRow(data, make(storage.Row, arity+1), nil); !errors.Is(wider, ErrCorrupt) {
			t.Fatalf("row of %d columns decoded into a table of %d: %v", arity, arity+1, wider)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || !errors.Is(maskedErr, ErrCorrupt) {
				t.Fatalf("decode errors not typed: %v / %v", err, maskedErr)
			}
			return
		}
		for i := range row {
			want := row[i]
			if !need[i] {
				want = marker
			}
			if masked[i] != want && !(masked[i].F != masked[i].F && want.F != want.F) {
				t.Fatalf("column %d (needed=%v): masked %v, full %v", i, need[i], masked[i], row[i])
			}
		}

		enc := appendRow(nil, row)
		row2 := make(storage.Row, arity)
		if err := decodeRow(enc, row2, nil); err != nil {
			t.Fatalf("re-decode of re-encoded row failed: %v", err)
		}
		for i := range row {
			if row[i].Kind != row2[i].Kind {
				t.Fatalf("column %d kind %v -> %v", i, row[i].Kind, row2[i].Kind)
			}
		}
	})
}

// FuzzPageDecode treats arbitrary bytes as a page image: structural
// validation and every slot access must error on corruption rather than
// panic or slice out of range.
func FuzzPageDecode(f *testing.F) {
	valid := make([]byte, MinPageSize)
	p := initPage(valid)
	p.appendTuple(appendRow(nil, testRow(1)))
	p.appendTuple(appendRow(nil, testRow(2)))
	p.setLSN(7)
	p.seal()
	f.Add(valid)
	f.Add(make([]byte, MinPageSize))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := make([]byte, MinPageSize)
		copy(buf, data)
		pg := page{buf}
		_ = pg.checkSeal()
		if err := pg.validate(); err != nil {
			return
		}
		for i := 0; i < pg.slotCount(); i++ {
			tup, err := pg.tuple(i)
			if err != nil {
				continue
			}
			_ = decodeRow(tup, make(storage.Row, fuzzArity(tup)), nil)
		}
		_ = pg.freeSpace()
	})
}

// FuzzWALScan replays arbitrary bytes as a log file: scan must stop at the
// first torn frame without panicking, the reported tail offset must stay
// within the file, and every surfaced insert payload must decode safely.
func FuzzWALScan(f *testing.F) {
	w := &wal{nextLSN: 1, maxRecord: uint32(4*MinPageSize + 256)}
	w.append(walInsert, insertPayload("t", 0, appendRow(nil, testRow(1))))
	w.append(walCommit, nil)
	w.append(walCheckpoint, nil)
	f.Add(append([]byte{}, w.buf...))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := openWAL(path, MinPageSize)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		recs, tailOff, err := w.scan()
		if err != nil {
			return
		}
		if tailOff < 0 || tailOff > int64(len(data)) {
			t.Fatalf("tail offset %d outside file of %d bytes", tailOff, len(data))
		}
		for _, r := range recs {
			if r.kind == walInsert {
				if table, _, rowBytes, err := decodeInsertPayload(r.payload); err == nil {
					_ = table
					_ = decodeRow(rowBytes, make(storage.Row, fuzzArity(rowBytes)), nil)
				}
			}
		}
	})
}
