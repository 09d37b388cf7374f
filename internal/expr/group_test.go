package expr

import (
	"math"
	"testing"

	"bufferdb/internal/storage"
)

func keyOf(vals ...storage.Value) string {
	var buf []byte
	for i, v := range vals {
		if i > 0 {
			buf = append(buf, '|')
		}
		buf = appendKey(buf, v)
	}
	return string(buf)
}

// TestGroupKeyEncoding pins the key contract: values without '|', '\' or
// NULL render exactly as Row.String always rendered them (the simulated
// group-table addresses hash this string), the rest are escaped so that
// distinct key rows never render alike, and -0 — equal to 0 — renders as 0.
func TestGroupKeyEncoding(t *testing.T) {
	plain := storage.Row{
		storage.NewInt(-42), storage.NewInt(math.MinInt64), storage.NewFloat(0.06), storage.NewFloat(1e21),
		storage.NewFloat(0), storage.NewString("A"), storage.NewString(""), storage.NewString("PROMO BRUSHED"),
		storage.DateFromYMD(1998, 9, 2), storage.NewDate(-1), storage.NewBool(true), storage.NewBool(false),
	}
	if got, want := keyOf(plain...), plain.String(); got != want {
		t.Errorf("plain key = %q, Row.String = %q", got, want)
	}

	if got := keyOf(storage.NewFloat(math.Copysign(0, -1))); got != "0" {
		t.Errorf("-0 has the key %q, 0 has the key \"0\": equal values in two groups", got)
	}

	str := storage.NewString
	distinct := []storage.Row{
		{str("x|y"), str("z")}, {str("x"), str("y|z")}, {str(`x\`), str("y|z")}, {str(`x\|y`), str("z")},
		{storage.Null, str("w")}, {str("NULL"), str("w")}, {str(`\N`), str("w")}, {str(""), str("w")},
	}
	seen := map[string]storage.Row{}
	for _, r := range distinct {
		k := keyOf(r...)
		if prev, dup := seen[k]; dup {
			t.Errorf("%q and %q share the key %q", prev, r, k)
		}
		seen[k] = r
	}
}

// TestGroupTableLookup covers the table around the encoder: one group per
// distinct key, rows added where Lookup says, and no allocation for a row
// whose group exists.
func TestGroupTableLookup(t *testing.T) {
	rows := lineitemRows(512)
	tab := NewGroupTable([]Expr{lineitemCol(liReturnflag), lineitemCol(liLinestatus)},
		[]AggSpec{{Func: AggCountStar}, {Func: AggSum, Arg: lineitemCol(liQuantity)}})
	want := map[string]int64{}
	for _, row := range rows {
		g, isNew, err := tab.Lookup(row)
		if err != nil {
			t.Fatal(err)
		}
		key := row[liReturnflag].S + "|" + row[liLinestatus].S
		if _, seen := want[key]; seen == isNew || g.Key != key {
			t.Fatalf("Lookup(%v) = group %q, isNew %v; seen before: %v", row, g.Key, isNew, seen)
		}
		want[key]++
		if err := g.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	tab.Sort()
	out, err := tab.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(want) || tab.Len() != len(want) {
		t.Fatalf("%d output rows, %d groups, want %d", len(out), tab.Len(), len(want))
	}
	for i, r := range out {
		if n := want[r[0].S+"|"+r[1].S]; r[2].I != n {
			t.Errorf("group %v counted %d rows, want %d", r, r[2].I, n)
		}
		if i > 0 && out[i-1][:2].String() >= r[:2].String() {
			t.Errorf("groups out of key order: %v before %v", out[i-1], r)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, row := range rows[:64] {
			if _, _, err := tab.Lookup(row); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("looking up existing groups allocates %.1f times per 64 rows", allocs)
	}

	empty := NewGroupTable(nil, []AggSpec{{Func: AggCountStar}, {Func: AggSum, Arg: lineitemCol(liQuantity)}})
	if out, err := empty.Rows(); err != nil || len(out) != 1 || out[0][0].I != 0 || !out[0][1].IsNull() {
		t.Errorf("ungrouped aggregate over no rows = %v, %v; want one row (0, NULL)", out, err)
	}
}
