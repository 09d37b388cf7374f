package expr

import (
	"hash/maphash"
	"math/rand"
	"testing"

	"bufferdb/internal/storage"
)

// genGrouping draws a GROUP BY list and an aggregate list, mostly of the
// shapes BlockFold covers.
func genGrouping(c *choices) (groupBy []Expr, aggs []AggSpec) {
	keyTypes := []storage.Type{storage.TypeString, storage.TypeInt64, storage.TypeDate, storage.TypeBool,
		storage.TypeString, storage.TypeInt64, storage.TypeFloat64}
	for n := c.next(3); n > 0; n-- {
		groupBy = append(groupBy, genCol(c, keyTypes[c.next(len(keyTypes))]))
	}
	for n := 1 + c.next(3); n > 0; n-- {
		switch c.next(8) {
		case 0:
			aggs = append(aggs, AggSpec{Func: AggMin + AggFunc(c.next(2)), Arg: genCol(c, storage.TypeString)})
		case 1, 2:
			aggs = append(aggs, AggSpec{Func: AggCountStar})
		case 3:
			aggs = append(aggs, AggSpec{Func: AggCount, Arg: genBlockFloat(c, 2)})
		case 4, 5:
			aggs = append(aggs, AggSpec{Func: AggAvg, Arg: genBlockFloat(c, 2)})
		default:
			aggs = append(aggs, AggSpec{Func: AggSum, Arg: genBlockFloat(c, 2)})
		}
	}
	return groupBy, aggs
}

// foldRows is the row path over a block's selected rows.
func foldRows(t *GroupTable, rows []storage.Row, sel []int32) error {
	for _, i := range sel {
		g, _, err := t.Lookup(rows[i])
		if err != nil {
			return err
		}
		if err := g.Add(rows[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkBlockFold folds the same blocks into two tables of one grouping —
// one through BlockFold, a block that misses a guard redone by the row
// path on the same table; one by the row path alone — and asserts the same
// groups, created in the same order, with the same results to the bit, or
// the same error at the same block. It reports how many blocks the block
// front folded.
func checkBlockFold(t *testing.T, groupBy []Expr, aggs []AggSpec, blocks int, c *choices) (folded int) {
	t.Helper()
	f := NewBlockFold(groupBy, aggs)
	if f == nil {
		return 0
	}
	got, want := NewGroupTable(groupBy, aggs), NewGroupTable(groupBy, aggs)
	f.Attach(got)
	for b := 0; b < blocks; b++ {
		rows, sel := genBlock(c)
		wantErr := foldRows(want, rows, sel)
		ok := f.Fold(rows, sel)
		var gotErr error
		if !ok {
			gotErr = foldRows(got, rows, sel)
		} else {
			folded++
		}
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("block %d of %v GROUP BY %v (block kernels folded it: %v): error %v, row path %v\nrows: %v\nsel:  %v",
				b, aggs, groupBy, ok, gotErr, wantErr, rows, sel)
		}
		if wantErr != nil {
			return folded
		}
		if got.Len() != want.Len() {
			t.Fatalf("block %d of %v GROUP BY %v: %d groups, row path %d\nrows: %v\nsel:  %v",
				b, aggs, groupBy, got.Len(), want.Len(), rows, sel)
		}
		for i := 0; i < got.Len(); i++ {
			if got.Group(i).Key != want.Group(i).Key {
				t.Fatalf("block %d of %v GROUP BY %v: group %d is %q, row path's is %q",
					b, aggs, groupBy, i, got.Group(i).Key, want.Group(i).Key)
			}
			for k := range aggs {
				result := func(tb *GroupTable) outcome {
					return evalOutcome(func(Expr, storage.Row) (storage.Value, error) { return tb.Row(i)[len(groupBy)+k], nil }, nil, nil)
				}
				if g, w := result(got), result(want); g != w {
					t.Fatalf("block %d: %v of group %q = %v, row path %v\nrows: %v\nsel:  %v",
						b, aggs[k], got.Group(i).Key, g, w, rows, sel)
				}
			}
		}
	}
	return folded
}

// TestBlockFoldMatchesRowPath is BlockFold's differential test.
func TestBlockFoldMatchesRowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	groupings := 3000
	if testing.Short() {
		groupings = 400
	}
	var covered, folded int
	for i := 0; i < groupings; i++ {
		c := &choices{b: randomBytes(rng, 2048)}
		groupBy, aggs := genGrouping(c)
		if n := checkBlockFold(t, groupBy, aggs, 4, c); n > 0 {
			covered++
			folded += n
		}
	}
	if covered < groupings/10 || folded < groupings/5 {
		t.Errorf("block front folded %d blocks of %d groupings out of %d", folded, covered, groupings)
	}
}

// FuzzBlockFold drives the same check from fuzzer input.
func FuzzBlockFold(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 16; i++ {
		f.Add(randomBytes(rng, 512))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &choices{b: data}
		groupBy, aggs := genGrouping(c)
		checkBlockFold(t, groupBy, aggs, 3, c)
	})
}

// TestBlockFoldVerifiesKeys feeds the group index keys built to hash alike:
// the index must tell them apart by value, strings and integers both.
func TestBlockFoldVerifiesKeys(t *testing.T) {
	for _, first := range []storage.Type{storage.TypeString, storage.TypeInt64} {
		groupBy := []Expr{NewColRef(0, "a", first), NewColRef(1, "b", storage.TypeInt64)}
		aggs := []AggSpec{{Func: AggCountStar}}
		f := NewBlockFold(groupBy, aggs)
		tb := NewGroupTable(groupBy, aggs)
		f.Attach(tb)
		a, b := storage.NewString("A"), storage.NewString("B")
		ha, hb := keyHash(0, maphash.String(f.seed, a.S)), keyHash(0, maphash.String(f.seed, b.S))
		if first == storage.TypeInt64 {
			a, b = storage.NewInt(1), storage.NewInt(2)
			ha, hb = keyHash(0, 1), keyHash(0, 2)
		}
		twin := int64(ha ^ 7 ^ hb) // (a, 7) and (b, twin) collide
		if keyHash(ha, 7) != keyHash(hb, uint64(twin)) {
			t.Fatal("the keys do not collide; the test no longer matches keyHash")
		}
		rows := []storage.Row{{a, storage.NewInt(7)}, {b, storage.NewInt(twin)}, {a, storage.NewInt(7)}, {storage.Null, storage.NewInt(7)}}
		if !f.Fold(rows, []int32{0, 1, 2, 3}) {
			t.Fatal("guard miss on well-typed rows")
		}
		if tb.Len() != 3 {
			t.Fatalf("%v first key: %d groups, want 3", first, tb.Len())
		}
		for i, want := range []int64{2, 1, 1} {
			if got := tb.Row(i)[2]; got != storage.NewInt(want) {
				t.Errorf("%v first key: group %q counts %v, want %d", first, tb.Group(i).Key, got, want)
			}
		}
	}
}

// TestBlockFoldIndexGrows: the index finds every group again after it has
// grown, without a second entry for any.
func TestBlockFoldIndexGrows(t *testing.T) {
	groupBy := []Expr{NewColRef(0, "k", storage.TypeInt64)}
	aggs := []AggSpec{{Func: AggCountStar}}
	f := NewBlockFold(groupBy, aggs)
	tb := NewGroupTable(groupBy, aggs)
	f.Attach(tb)
	rows, sel := make([]storage.Row, 1000), make([]int32, 1000)
	for i := range rows {
		rows[i], sel[i] = storage.Row{storage.NewInt(int64(i * i))}, int32(i)
	}
	for pass := int64(1); pass <= 2; pass++ {
		if !f.Fold(rows, sel) {
			t.Fatal("guard miss on well-typed rows")
		}
		if tb.Len() != len(rows) || f.used != len(rows) {
			t.Fatalf("pass %d: %d groups, %d index entries, want %d of each", pass, tb.Len(), f.used, len(rows))
		}
		for i := range rows {
			if got := tb.Row(i)[1]; got != storage.NewInt(pass) {
				t.Fatalf("pass %d: group %d counts %v", pass, i, got)
			}
		}
	}
}

// TestBlockFoldLeavesMixedKindsToRowPath: Lookup keys a group by its
// rendering, under which 1 and '1' are one group. The block front only
// ever answers for values of the column's type, and must hand a table that
// holds the other kind back rather than split the group.
func TestBlockFoldLeavesMixedKindsToRowPath(t *testing.T) {
	groupBy := []Expr{NewColRef(0, "s", storage.TypeString)}
	aggs := []AggSpec{{Func: AggCountStar}}
	f := NewBlockFold(groupBy, aggs)
	tb := NewGroupTable(groupBy, aggs)
	f.Attach(tb)
	odd := []storage.Row{{storage.NewInt(1)}}
	if f.Fold(odd, []int32{0}) {
		t.Fatal("an int in a VARCHAR column passed the guard")
	}
	if err := foldRows(tb, odd, []int32{0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // twice: a miss must not fill the index either
		if f.Fold([]storage.Row{{storage.NewString("1")}}, []int32{0}) {
			t.Fatal("'1' was folded into, or beside, the group of 1")
		}
	}
	if tb.Len() != 1 || f.used != 0 {
		t.Fatalf("%d groups, %d index entries; want 1 and 0", tb.Len(), f.used)
	}
}
