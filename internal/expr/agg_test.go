package expr

import (
	"testing"
	"testing/quick"

	"bufferdb/internal/storage"
)

func accOver(t *testing.T, spec AggSpec, rows []storage.Row) storage.Value {
	t.Helper()
	acc, err := NewAccumulator(spec)
	if err != nil {
		t.Fatalf("NewAccumulator(%v): %v", spec, err)
	}
	for _, r := range rows {
		if err := acc.Add(r); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return acc.Result()
}

func intRows(vals ...int64) []storage.Row {
	rows := make([]storage.Row, len(vals))
	for i, v := range vals {
		rows[i] = storage.Row{storage.NewInt(v)}
	}
	return rows
}

func col0Int() Expr   { return NewColRef(0, "v", storage.TypeInt64) }
func col0Float() Expr { return NewColRef(0, "v", storage.TypeFloat64) }

func TestCountStar(t *testing.T) {
	got := accOver(t, AggSpec{Func: AggCountStar}, intRows(1, 2, 3))
	if got.I != 3 {
		t.Errorf("COUNT(*) = %v", got)
	}
}

func TestCountSkipsNulls(t *testing.T) {
	rows := []storage.Row{
		{storage.NewInt(1)},
		{storage.Null},
		{storage.NewInt(3)},
	}
	got := accOver(t, AggSpec{Func: AggCount, Arg: col0Int()}, rows)
	if got.I != 2 {
		t.Errorf("COUNT(v) with a NULL = %v, want 2", got)
	}
}

func TestSumIntAndFloat(t *testing.T) {
	got := accOver(t, AggSpec{Func: AggSum, Arg: col0Int()}, intRows(1, 2, 3))
	if got.Kind != storage.TypeInt64 || got.I != 6 {
		t.Errorf("SUM(int) = %+v", got)
	}
	rows := []storage.Row{{storage.NewFloat(0.5)}, {storage.NewFloat(1.25)}}
	got = accOver(t, AggSpec{Func: AggSum, Arg: col0Float()}, rows)
	if got.Kind != storage.TypeFloat64 || got.F != 1.75 {
		t.Errorf("SUM(float) = %+v", got)
	}
}

func TestSumEmptyIsNull(t *testing.T) {
	got := accOver(t, AggSpec{Func: AggSum, Arg: col0Int()}, nil)
	if !got.IsNull() {
		t.Errorf("SUM over zero rows = %v, want NULL", got)
	}
}

func TestAvg(t *testing.T) {
	got := accOver(t, AggSpec{Func: AggAvg, Arg: col0Int()}, intRows(1, 2, 3, 6))
	if got.Kind != storage.TypeFloat64 || got.F != 3 {
		t.Errorf("AVG = %+v", got)
	}
	if got := accOver(t, AggSpec{Func: AggAvg, Arg: col0Int()}, nil); !got.IsNull() {
		t.Error("AVG over zero rows must be NULL")
	}
	rows := []storage.Row{{storage.Null}, {storage.NewInt(4)}}
	if got := accOver(t, AggSpec{Func: AggAvg, Arg: col0Int()}, rows); got.F != 4 {
		t.Errorf("AVG skipping NULL = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	rows := intRows(5, 1, 9, 3)
	if got := accOver(t, AggSpec{Func: AggMin, Arg: col0Int()}, rows); got.I != 1 {
		t.Errorf("MIN = %v", got)
	}
	if got := accOver(t, AggSpec{Func: AggMax, Arg: col0Int()}, rows); got.I != 9 {
		t.Errorf("MAX = %v", got)
	}
	if got := accOver(t, AggSpec{Func: AggMin, Arg: col0Int()}, nil); !got.IsNull() {
		t.Error("MIN over zero rows must be NULL")
	}
	srows := []storage.Row{{storage.NewString("pear")}, {storage.NewString("apple")}}
	sref := NewColRef(0, "s", storage.TypeString)
	if got := accOver(t, AggSpec{Func: AggMin, Arg: sref}, srows); got.S != "apple" {
		t.Errorf("MIN(string) = %v", got)
	}
}

func TestAggMetadata(t *testing.T) {
	s := AggSpec{Func: AggSum, Arg: col0Int()}
	if ty, err := s.ResultType(); err != nil || ty != storage.TypeInt64 {
		t.Errorf("SUM(int) type = %v, %v", ty, err)
	}
	a := AggSpec{Func: AggAvg, Arg: col0Int()}
	if ty, err := a.ResultType(); err != nil || ty != storage.TypeFloat64 {
		t.Errorf("AVG type = %v, %v", ty, err)
	}
	bad := AggSpec{Func: AggSum, Arg: strc("x")}
	if _, err := bad.ResultType(); err == nil {
		t.Error("SUM(string) accepted")
	}
	if _, err := NewAccumulator(bad); err == nil {
		t.Error("NewAccumulator over SUM(string) accepted")
	}
	if (AggSpec{Func: AggCountStar}).OutputName() != "count" {
		t.Error("COUNT(*) output name")
	}
	if got := (AggSpec{Func: AggMax, Arg: col0Int(), As: "m"}).OutputName(); got != "m" {
		t.Errorf("aliased output name = %q", got)
	}
	if got := (AggSpec{Func: AggCountStar}).String(); got != "COUNT(*)" {
		t.Errorf("COUNT(*) render = %q", got)
	}
}

// Property: SUM(ints) computed through the accumulator equals the direct sum.
func TestSumProperty(t *testing.T) {
	f := func(vals []int32) bool {
		rows := make([]storage.Row, len(vals))
		var want int64
		for i, v := range vals {
			rows[i] = storage.Row{storage.NewInt(int64(v))}
			want += int64(v)
		}
		acc, err := NewAccumulator(AggSpec{Func: AggSum, Arg: col0Int()})
		if err != nil {
			return false
		}
		for _, r := range rows {
			if err := acc.Add(r); err != nil {
				return false
			}
		}
		got := acc.Result()
		if len(vals) == 0 {
			return got.IsNull()
		}
		return got.I == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MIN ≤ AVG ≤ MAX over any non-empty int set.
func TestMinAvgMaxOrderingProperty(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		rows := make([]storage.Row, len(vals))
		for i, v := range vals {
			rows[i] = storage.Row{storage.NewInt(int64(v))}
		}
		run := func(fn AggFunc) storage.Value {
			acc, _ := NewAccumulator(AggSpec{Func: fn, Arg: col0Int()})
			for _, r := range rows {
				_ = acc.Add(r)
			}
			return acc.Result()
		}
		mn, av, mx := run(AggMin), run(AggAvg), run(AggMax)
		return float64(mn.I) <= av.F && av.F <= float64(mx.I)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
