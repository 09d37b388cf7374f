package plan

import (
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// estimateSampleSize bounds the rows examined per estimate. Sampling the
// actual data instead of keeping histograms is a simplification the
// refinement algorithm tolerates well: it only needs cardinalities accurate
// to the order of magnitude of the calibration threshold.
const estimateSampleSize = 1024

// selectivity estimates the fraction of table rows satisfying filter by
// evaluating it over an evenly spaced sample. A nil filter selects all; an
// erroring filter pessimistically selects all.
func selectivity(table *storage.Table, filter expr.Expr) float64 {
	if filter == nil {
		return 1
	}
	n := table.NumRows()
	if n == 0 {
		return 1
	}
	step := n / estimateSampleSize
	if step < 1 {
		step = 1
	}
	sampled, matched := 0, 0
	var evalErr error
	err := table.Sample(step, none(len(table.Schema())).with(filter), func(row storage.Row) bool {
		sampled++
		ok, err := expr.EvalBool(filter, row)
		if err != nil {
			evalErr = err
			return false
		}
		if ok {
			matched++
		}
		return true
	})
	// A paged table that cannot be read is the executor's error to surface;
	// the estimator just stays pessimistic.
	if err != nil || evalErr != nil {
		return 1
	}
	if sampled == 0 {
		return 1
	}
	// Clamp away from exactly zero: the optimizer never assumes emptiness.
	sel := float64(matched) / float64(sampled)
	if sel == 0 {
		sel = 0.5 / float64(sampled)
	}
	return sel
}

// rowsPerKey estimates the average number of rows per distinct key of a
// non-unique index, by sampling key values.
func rowsPerKey(table *storage.Table, index *storage.IndexMeta) float64 {
	n := table.NumRows()
	if n == 0 {
		return 1
	}
	// Duplicate keys cluster (a foreign key groups consecutive rows), so
	// sample contiguous windows rather than spaced points — spaced samples
	// would land on distinct keys and report 1 row per key.
	const windows, windowRows = 8, 128
	distinct := make(map[int64]struct{})
	sampled := 0
	for w := 0; w < windows; w++ {
		start := w * n / windows
		for i := start; i < start+windowRows && i < n; i++ {
			row, err := table.FetchRow(i)
			if err != nil {
				continue
			}
			v := row[index.Col]
			if v.Kind == storage.TypeInt64 {
				distinct[v.I] = struct{}{}
			}
			sampled++
		}
	}
	if len(distinct) == 0 {
		return 1
	}
	per := float64(sampled) / float64(len(distinct))
	if per < 1 {
		per = 1
	}
	return per
}

// matchesPerKey estimates how many rows of the build/right input share one
// join key: an index lookup's own estimate, and 1 for every other input —
// every join is assumed key-foreign-key. Precise join estimation is out of
// scope; the refinement rule only needs "big or small".
func matchesPerKey(n *Node) float64 {
	switch n.Kind {
	case KindIndexLookup:
		return n.EstRows
	case KindHashBuild, KindSort, KindBuffer:
		return matchesPerKey(n.Children[0])
	default:
		return 1
	}
}
