package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 70000)}
	types := []Type{THello, TQuery, TRowBatch, TError}
	for i, p := range payloads {
		if err := WriteFrame(&buf, types[i], p); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i, p := range payloads {
		ft, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if ft != types[i] {
			t.Fatalf("frame %d: type %v, want %v", i, ft, types[i])
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got), len(p))
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}

func TestFrameOversize(t *testing.T) {
	if err := WriteFrame(io.Discard, TQuery, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("WriteFrame accepted an oversized payload")
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrame+1)
	hdr[4] = byte(TQuery)
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("ReadFrame accepted an oversized length prefix")
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TDone, []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{1, 4, 5, 7, len(raw) - 1} {
		if _, _, err := ReadFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("ReadFrame accepted a frame truncated to %d bytes", cut)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []any{
		nil,
		true,
		false,
		int64(-42),
		int64(1) << 60,
		3.14159,
		"",
		"hello, wörld",
		strings.Repeat("x", 4096),
		time.Unix(820454400, 0).UTC(), // 1996-01-01, a TPC-H date
	}
	var b Builder
	for _, v := range vals {
		if err := b.Value(v); err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
	}
	r := NewReader(b.Bytes())
	for i, want := range vals {
		got := r.Value()
		if tv, ok := want.(time.Time); ok {
			if !tv.Equal(got.(time.Time)) {
				t.Fatalf("value %d: got %v, want %v", i, got, want)
			}
			continue
		}
		if got != want {
			t.Fatalf("value %d: got %#v, want %#v", i, got, want)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatalf("reader error: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
}

func TestValueRejectsUnknownType(t *testing.T) {
	var b Builder
	if err := b.Value(struct{}{}); err == nil {
		t.Fatal("encoded an unsupported type")
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x01}) // too short for a u32
	_ = r.U32()
	if r.Err() == nil {
		t.Fatal("truncated read did not set the error")
	}
	// Later reads stay zero-valued and don't panic.
	if got := r.U64(); got != 0 {
		t.Fatalf("read after error returned %d", got)
	}
	if s := r.String(); s != "" {
		t.Fatalf("read after error returned %q", s)
	}
}

func TestOptsRoundTrip(t *testing.T) {
	cases := []QueryOpts{
		{},
		{TimeoutMS: 1500, NoResultCache: true},
		{TimeoutMS: -1, MemoryBudget: 64 << 20},
		{MemoryBudget: -1, Slice: 3},
	}
	for i, o := range cases {
		var b Builder
		b.Opts(o)
		r := NewReader(b.Bytes())
		got := r.Opts()
		if err := r.Err(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != o {
			t.Fatalf("case %d: got %+v, want %+v", i, got, o)
		}
	}
}

func TestCacheKeySeparatesOptions(t *testing.T) {
	sql := "SELECT COUNT(*) FROM lineitem"
	if (QueryOpts{Slice: 2}).CacheKey(sql) == (QueryOpts{}).CacheKey(sql) {
		t.Fatal("slices share a cache key")
	}
	// Execution-time knobs must NOT split the key.
	for _, o := range []QueryOpts{{TimeoutMS: 10}, {NoResultCache: true}, {MemoryBudget: 1024}} {
		if o.CacheKey(sql) != (QueryOpts{}).CacheKey(sql) {
			t.Fatalf("execution-time option %+v leaked into the cache key", o)
		}
	}
}
