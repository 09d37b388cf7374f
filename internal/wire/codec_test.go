package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"bufferdb/internal/storage"
)

// sameValue is identity on values, NaN payloads and the sign of zero
// included.
func sameValue(a, b storage.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// sameNative is == on native values, with floats compared by bits and
// times by instant.
func sameNative(a, b any) bool {
	if af, ok := a.(float64); ok {
		bf, ok := b.(float64)
		return ok && math.Float64bits(af) == math.Float64bits(bf)
	}
	if at, ok := a.(time.Time); ok {
		bt, ok := b.(time.Time)
		return ok && at.Equal(bt)
	}
	return a == b
}

// goldenRow holds every kind the protocol has a tag for, plus one it has
// not (it travels as its rendering).
var goldenRow = storage.Row{
	storage.Null,
	storage.NewBool(true),
	storage.NewBool(false),
	storage.NewInt(-2),
	storage.NewFloat(1.5),
	storage.NewString("hé"),
	storage.DateFromYMD(1996, 1, 1),
	{Kind: storage.Type(99)},
}

// goldenBatch is goldenRow twice as one RowBatch payload. It pins the bytes
// on the wire: a daemon of any earlier commit encodes and decodes exactly
// this, so a change here is a protocol break (bump Version, don't edit).
const goldenBatch = "00000002" +
	"00" + "0101" + "0100" + "02fffffffffffffffe" + "033ff8000000000000" + "040000000368c3a9" +
	"050000000030e72400" + "04000000133c6261642076616c7565206b696e642039393e" +
	"00" + "0101" + "0100" + "02fffffffffffffffe" + "033ff8000000000000" + "040000000368c3a9" +
	"050000000030e72400" + "04000000133c6261642076616c7565206b696e642039393e"

// goldenOpts is one QueryOpts with every field set: the flags byte
// (NoResultCache), the timeout, the memory budget and the slice, in that
// order. Like goldenBatch it is a protocol pin: moving a field is a
// protocol break (bump Version, don't edit).
const goldenOpts = "01" + "00000000000005dc" + "0000000004000000" + "00000003"

func TestGoldenOpts(t *testing.T) {
	want, err := hex.DecodeString(goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	o := QueryOpts{TimeoutMS: 1500, NoResultCache: true, MemoryBudget: 64 << 20, Slice: 3}
	var b Builder
	b.Opts(o)
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("options moved on the wire:\n got %x\nwant %x", b.Bytes(), want)
	}
	r := NewReader(want)
	if got := r.Opts(); got != o || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("golden options decode to %+v (err %v, %d bytes left), want %+v", got, r.Err(), r.Remaining(), o)
	}
}

func TestGoldenRowBatch(t *testing.T) {
	want, err := hex.DecodeString(goldenBatch)
	if err != nil {
		t.Fatal(err)
	}

	var typed, boxed Builder
	typed.U32(2)
	boxed.U32(2)
	for i := 0; i < 2; i++ {
		typed.Row(goldenRow)
		for _, v := range goldenRow {
			if err := boxed.Value(v.Native()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !bytes.Equal(typed.Bytes(), want) {
		t.Fatalf("typed encoder moved the bytes on the wire:\n got %x\nwant %x", typed.Bytes(), want)
	}
	if !bytes.Equal(boxed.Bytes(), want) {
		t.Fatalf("any encoder moved the bytes on the wire:\n got %x\nwant %x", boxed.Bytes(), want)
	}

	arena, rows, err := DecodeRowBatch(want, len(goldenRow))
	if err != nil || rows != 2 || len(arena) != 2*len(goldenRow) {
		t.Fatalf("DecodeRowBatch: %d rows, %d cells, err %v", rows, len(arena), err)
	}
	rd := NewReader(want[4:])
	for i, got := range arena {
		v := goldenRow[i%len(goldenRow)]
		if v.Kind > storage.TypeDate {
			v = storage.NewString(v.String())
		}
		if !sameValue(got, v) {
			t.Fatalf("cell %d: typed decode %#v, want %#v", i, got, v)
		}
		if n := rd.Value(); !sameNative(n, v.Native()) {
			t.Fatalf("cell %d: any decode %#v, want %#v", i, n, v.Native())
		}
	}
	if rd.Err() != nil || rd.Remaining() != 0 {
		t.Fatalf("any decoder: err %v, %d bytes left", rd.Err(), rd.Remaining())
	}
}

// randomValue draws from the corners of every kind.
func randomValue(rng *rand.Rand) storage.Value {
	switch rng.Intn(7) {
	case 0:
		return storage.Null
	case 1:
		return storage.NewBool(rng.Intn(2) == 0)
	case 2:
		ints := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, rng.Int63(), -rng.Int63()}
		return storage.NewInt(ints[rng.Intn(len(ints))])
	case 3:
		floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
			math.SmallestNonzeroFloat64, math.MaxFloat64, rng.NormFloat64()}
		return storage.NewFloat(floats[rng.Intn(len(floats))])
	case 4:
		// Negative (before 1970) and far-future dates; all within the range
		// whose midnight fits an int64 of seconds many times over.
		days := []int64{0, -1, -25567, 2932896, rng.Int63n(100_000) - 50_000}
		return storage.NewDate(days[rng.Intn(len(days))])
	case 5:
		strs := []string{"", "a", "wörld", "\xff\xfe not utf-8 \x00", strings.Repeat("z", 70<<10)}
		return storage.NewString(strs[rng.Intn(len(strs))])
	default:
		return storage.Value{Kind: storage.Type(6 + rng.Intn(200))}
	}
}

// TestCodecDifferential: over random rows the typed encoder and the any
// encoder write identical bytes, typed decode ∘ typed encode is the
// identity, and the any decoder over the same bytes yields Native().
func TestCodecDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 500; iter++ {
		row := make(storage.Row, rng.Intn(12))
		for i := range row {
			row[i] = randomValue(rng)
		}
		var typed, boxed Builder
		typed.Row(row)
		for _, v := range row {
			if err := boxed.Value(v.Native()); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
		}
		if !bytes.Equal(typed.Bytes(), boxed.Bytes()) {
			t.Fatalf("iter %d: encoders disagree on %v:\ntyped %x\n  any %x", iter, row, typed.Bytes(), boxed.Bytes())
		}
		tr, ar := NewReader(typed.Bytes()), NewReader(typed.Bytes())
		for i, v := range row {
			want := v
			if v.Kind > storage.TypeDate {
				want = storage.NewString(v.String())
			}
			if got := tr.Val(); !sameValue(got, want) {
				t.Fatalf("iter %d cell %d: typed round trip %#v, want %#v", iter, i, got, want)
			}
			if got := ar.Value(); !sameNative(got, v.Native()) {
				t.Fatalf("iter %d cell %d: any decode %#v, want %#v", iter, i, got, v.Native())
			}
		}
		for _, r := range []*Reader{tr, ar} {
			if r.Err() != nil || r.Remaining() != 0 {
				t.Fatalf("iter %d: err %v, %d bytes left", iter, r.Err(), r.Remaining())
			}
		}
	}
}

// TestValueKeepsInstant: the any entry points carry any instant to the
// second, not only the midnights the engine produces.
func TestValueKeepsInstant(t *testing.T) {
	at := time.Unix(820454400+3723, 0).UTC()
	var b Builder
	if err := b.Value(at); err != nil {
		t.Fatal(err)
	}
	if got := NewReader(b.Bytes()).Value(); !at.Equal(got.(time.Time)) {
		t.Fatalf("got %v, want %v", got, at)
	}
}

// TestDecodeRowBatchBounded: decode cost follows the bytes decoded, not the
// declared count. A frame of a million NULL tags with a bad tag near the
// front declares a count its length covers, so the division bound passes;
// it must still fail at the bad cell without sizing an arena for the rest.
func TestDecodeRowBatchBounded(t *testing.T) {
	const cells = 1 << 20
	p := make([]byte, 4+cells)
	binary.BigEndian.PutUint32(p, cells/2)
	p[4+10] = 0x7f

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodeRowBatch(p, 2)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "unknown value kind 0x7f at offset 14") {
		t.Fatalf("err = %v, want the unknown kind at offset 14", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*arenaChunk*40 {
		t.Fatalf("decoding 10 cells of a malformed frame allocated %d bytes", got)
	}

	for name, tc := range map[string]struct {
		payload []byte
		cols    int
		want    string
	}{
		"count over payload": {[]byte{0xff, 0xff, 0xff, 0xff, 0}, 2, "4294967295 rows declared in 5 payload bytes"},
		"truncated mid-cell": {[]byte{0, 0, 0, 1, valNull, valInt, 1, 2, 3}, 2, "truncated payload reading u64"},
		"truncated string":   {[]byte{0, 0, 0, 1, valStr, 0, 0, 0, 9, 'x'}, 1, "truncated payload reading string"},
		"short count":        {[]byte{0, 0}, 1, "truncated payload reading u32"},
	} {
		if arena, rows, err := DecodeRowBatch(tc.payload, tc.cols); err == nil || !strings.Contains(err.Error(), tc.want) || arena != nil || rows != 0 {
			t.Errorf("%s: got %d rows, err %v; want an error containing %q", name, rows, err, tc.want)
		}
	}
}

// FuzzRowBatch feeds arbitrary payloads to the batch decoder: it never
// panics, its arena stays within a constant of the payload, and it agrees
// with a cell-by-cell any decoder on accept/reject and on every value.
func FuzzRowBatch(f *testing.F) {
	golden, _ := hex.DecodeString(goldenBatch)
	f.Add(golden, uint8(len(goldenRow)))
	f.Add(golden[:len(golden)-3], uint8(len(goldenRow)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0}, uint8(2))
	f.Add([]byte{0, 0, 0, 3}, uint8(0))
	f.Add([]byte{0, 0, 0, 2, valNull, valBool, 7, valTime, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x85}, uint8(2))
	f.Fuzz(func(t *testing.T, p []byte, cols8 uint8) {
		cols := int(cols8)
		arena, rows, err := DecodeRowBatch(p, cols)

		// The reference: the same bound, then one boxed cell at a time.
		rd := NewReader(p)
		n := int(rd.U32())
		var want []any
		ok := n <= rd.Remaining()/max(cols, 1)
		for i := 0; ok && i < n*cols && rd.Err() == nil; i++ {
			want = append(want, rd.Value())
		}
		ok = ok && rd.Err() == nil

		if ok != (err == nil) {
			t.Fatalf("typed decoder err %v, any decoder accepts=%v (err %v)", err, ok, rd.Err())
		}
		if err != nil {
			if arena != nil || rows != 0 {
				t.Fatalf("rejected frame still returned %d rows, %d cells", rows, len(arena))
			}
			return
		}
		if rows != n || len(arena) != len(want) {
			t.Fatalf("typed decoder: %d rows, %d cells; any decoder: %d rows, %d cells", rows, len(arena), n, len(want))
		}
		if cap(arena) > 2*len(p)+8 {
			t.Fatalf("arena of %d cells for a %d-byte payload", cap(arena), len(p))
		}
		for i, v := range arena {
			// A typed DATE is whole days; the any decoder keeps the seconds.
			w := want[i]
			if at, isTime := w.(time.Time); isTime {
				w = time.Unix(at.Unix()/secondsPerDay*secondsPerDay, 0).UTC()
			}
			if !sameNative(v.Native(), w) {
				t.Fatalf("cell %d: typed %#v, any %#v", i, v.Native(), w)
			}
		}
	})
}
