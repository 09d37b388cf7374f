package expr

import (
	"math/rand"
	"testing"

	"bufferdb/internal/storage"
)

// lineitem-shaped rows for the kernel benchmarks: the columns TPC-H Q1 and
// Q6 touch, with the generator's value ranges.
const (
	liOrderkey = iota
	liQuantity
	liExtendedprice
	liDiscount
	liTax
	liReturnflag
	liLinestatus
	liShipdate
	liWidth
)

func lineitemCol(i int) Expr {
	names := [liWidth]string{"l_orderkey", "l_quantity", "l_extendedprice", "l_discount", "l_tax",
		"l_returnflag", "l_linestatus", "l_shipdate"}
	types := [liWidth]storage.Type{storage.TypeInt64, storage.TypeFloat64, storage.TypeFloat64, storage.TypeFloat64,
		storage.TypeFloat64, storage.TypeString, storage.TypeString, storage.TypeDate}
	return NewColRef(i, names[i], types[i])
}

func lineitemRows(n int) []storage.Row {
	rng := rand.New(rand.NewSource(1))
	flags, status := []string{"A", "N", "R"}, []string{"F", "O"}
	first := storage.DateFromYMD(1992, 1, 1).I
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			liOrderkey:      storage.NewInt(int64(i/4 + 1)),
			liQuantity:      storage.NewFloat(float64(1 + rng.Intn(50))),
			liExtendedprice: storage.NewFloat(900 + 100000*rng.Float64()),
			liDiscount:      storage.NewFloat(float64(rng.Intn(11)) / 100),
			liTax:           storage.NewFloat(float64(rng.Intn(9)) / 100),
			liReturnflag:    storage.NewString(flags[rng.Intn(3)]),
			liLinestatus:    storage.NewString(status[rng.Intn(2)]),
			liShipdate:      storage.NewDate(first + int64(rng.Intn(7*365))),
		}
	}
	return rows
}

func and(es ...Expr) Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = MustBinary(OpAnd, out, e)
	}
	return out
}

// q6Predicate is the benchmark's Q6 WHERE clause as the analyzer builds it:
// BETWEEN desugared, `0.05 - 0.01` and the negated sentinel left as
// column-free subtrees.
func q6Predicate() Expr {
	neg, _ := NewNeg(intc(7))
	return and(
		MustBinary(OpGe, lineitemCol(liShipdate), datec(1994, 1, 1)),
		MustBinary(OpLt, lineitemCol(liShipdate), datec(1995, 1, 1)),
		MustBinary(OpGe, lineitemCol(liDiscount), MustBinary(OpSub, floatc(0.05), floatc(0.01))),
		MustBinary(OpLe, lineitemCol(liDiscount), MustBinary(OpAdd, floatc(0.05), floatc(0.01))),
		MustBinary(OpLt, lineitemCol(liQuantity), intc(24)),
		MustBinary(OpNe, lineitemCol(liOrderkey), neg),
	)
}

// q1Aggregates is Q1's aggregate list.
func q1Aggregates() []AggSpec {
	price, disc, tax := lineitemCol(liExtendedprice), lineitemCol(liDiscount), lineitemCol(liTax)
	discPrice := MustBinary(OpMul, price, MustBinary(OpSub, intc(1), disc))
	return []AggSpec{
		{Func: AggSum, Arg: lineitemCol(liQuantity)},
		{Func: AggSum, Arg: price},
		{Func: AggSum, Arg: discPrice},
		{Func: AggSum, Arg: MustBinary(OpMul, discPrice, MustBinary(OpAdd, intc(1), tax))},
		{Func: AggAvg, Arg: lineitemCol(liQuantity)},
		{Func: AggAvg, Arg: price},
		{Func: AggAvg, Arg: disc},
		{Func: AggCountStar},
	}
}

var benchSink int

// BenchmarkExprKernel times the three per-row bodies of the analytic
// classes, one op = one input row: Q6's predicate, Q1's eight accumulators,
// and Q1's group lookup (existing groups, so 0 allocs/op).
func BenchmarkExprKernel(b *testing.B) {
	rows := lineitemRows(4096)
	b.Run("q6_predicate", func(b *testing.B) {
		pred := q6Predicate()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ok, err := EvalBool(pred, rows[i%len(rows)])
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				benchSink++
			}
		}
	})
	b.Run("q1_aggregates", func(b *testing.B) {
		g := Group{}
		for _, spec := range q1Aggregates() {
			acc, err := NewAccumulator(spec)
			if err != nil {
				b.Fatal(err)
			}
			g.accs = append(g.accs, acc)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := g.Add(rows[i%len(rows)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("group_key", func(b *testing.B) {
		t := NewGroupTable([]Expr{lineitemCol(liReturnflag), lineitemCol(liLinestatus)}, q1Aggregates())
		for _, row := range rows {
			if _, _, err := t.Lookup(row); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, isNew, _ := t.Lookup(rows[i%len(rows)]); isNew {
				b.Fatal("new group after warm-up")
			}
		}
	})
}
