package exec_test

import (
	"testing"

	"bufferdb/internal/exec"
	"bufferdb/internal/exec/exectest"
	"bufferdb/internal/expr"
)

// TestOperatorConformance runs the lifecycle conformance harness over every
// operator in the package.
func TestOperatorConformance(t *testing.T) {
	li := exec.Tbl(t, "lineitem")
	orders := exec.Tbl(t, "orders")
	liSch := li.Schema()
	oSch := orders.Schema()
	liKey := func() expr.Expr { return exec.ColRefOf(t, liSch, "l_orderkey") }
	oKey := func() expr.Expr { return exec.ColRefOf(t, oSch, "o_orderkey") }
	countStar := []expr.AggSpec{{Func: expr.AggCountStar}}

	cases := map[string]func() exec.Operator{
		"SeqScan": func() exec.Operator { return exec.NewSeqScan(li, nil, nil) },
		"SeqScanPred": func() exec.Operator {
			return exec.NewSeqScan(li, exec.ShipdateFilter(t, liSch, "1995-06-17"), nil)
		},
		"IndexLookup": func() exec.Operator {
			lu, err := exec.NewIndexLookup(orders, orders.IndexOn("o_orderkey"), nil)
			if err != nil {
				t.Fatal(err)
			}
			return lu
		},
		"IndexFullScan": func() exec.Operator {
			s, err := exec.NewIndexFullScan(orders, orders.IndexOn("o_orderkey"), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"NestLoopJoin": func() exec.Operator {
			inner, err := exec.NewIndexLookup(orders, orders.IndexOn("o_orderkey"), nil)
			if err != nil {
				t.Fatal(err)
			}
			return exec.NewNestLoopJoin(exec.NewSeqScan(li, nil, nil), inner, liKey(), nil, nil)
		},
		"HashJoin": func() exec.Operator {
			return exec.NewHashJoin(exec.NewSeqScan(li, nil, nil), exec.NewSeqScan(orders, nil, nil),
				liKey(), oKey(), nil, nil)
		},
		"MergeJoin": func() exec.Operator {
			sorted := exec.NewSort(exec.NewSeqScan(li, nil, nil), []exec.SortKey{{Expr: liKey()}}, nil)
			oscan, err := exec.NewIndexFullScan(orders, orders.IndexOn("o_orderkey"), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return exec.NewMergeJoin(sorted, oscan, liKey(), oKey(), nil)
		},
		"Sort": func() exec.Operator {
			return exec.NewSort(exec.NewSeqScan(li, nil, nil), []exec.SortKey{{Expr: liKey(), Desc: true}}, nil)
		},
		"Aggregate": func() exec.Operator {
			a, err := exec.NewAggregate(exec.NewSeqScan(li, nil, nil), nil, countStar, nil)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"AggregateGrouped": func() exec.Operator {
			a, err := exec.NewAggregate(exec.NewSeqScan(li, nil, nil),
				[]expr.Expr{exec.ColRefOf(t, liSch, "l_returnflag")}, countStar, nil)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"Limit": func() exec.Operator { return exec.NewLimit(exec.NewSeqScan(li, nil, nil), 10) },
		"Filter": func() exec.Operator {
			return exec.NewFilter(exec.NewSeqScan(li, nil, nil), exec.ShipdateFilter(t, liSch, "1995-06-17"), nil)
		},
		"Project": func() exec.Operator {
			p, err := exec.NewProject(exec.NewSeqScan(li, nil, nil),
				[]expr.Expr{liKey()}, []string{"l_orderkey"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		"Values": func() exec.Operator {
			vals := exec.NewValues(liSch, nil)
			for rid := 0; rid < 5; rid++ {
				vals.Rows = append(vals.Rows, li.Row(rid))
			}
			return vals
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) { exectest.Conformance(t, name, mk) })
	}
}

func TestExchangeConformance(t *testing.T) {
	exectest.Conformance(t, "Exchange", func() exec.Operator {
		ex, err := exec.NewExchange(exec.Partitions(t, 3))
		if err != nil {
			t.Fatal(err)
		}
		return ex
	})
}
