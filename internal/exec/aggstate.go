package exec

import (
	"fmt"
	"strings"

	"bufferdb/internal/expr"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// aggBuckets sizes the simulated accumulator region: 64-byte slots.
const aggBuckets = 1 << 12

// AggState is the grouped-aggregation state behind exec.Aggregate (and so
// BlockAggregate), vec.HashAggregate and the push engine's aggregation
// sink. The operators are drivers — a fold loop that accounts each input
// row's module invocation its own way, and an emit loop over Outputs — and
// everything else is here: the output schema, the group table, the
// per-group memory charge and its release, the simulated accumulator
// region and its traffic, the deterministic output order, the one row of an
// ungrouped aggregate over no input, and publication to the reuse cache
// behind the "<agg>:publish" fault site.
type AggState struct {
	groupBy []expr.Expr
	aggs    []expr.AggSpec
	schema  storage.Schema
	shared  *SharedAgg

	publishFault *faultinject.Point
	table        *expr.GroupTable
	region       uint64 // simulated accumulator slots
	memUsed      int64
}

// NewAggState derives the output schema: one column per GROUP BY
// expression (a column reference keeps its name), then one per aggregate.
func NewAggState(groupBy []expr.Expr, aggs []expr.AggSpec) (AggState, error) {
	s := AggState{groupBy: groupBy, aggs: aggs}
	if len(aggs) == 0 {
		return s, fmt.Errorf("exec: Aggregate needs at least one aggregate")
	}
	for i, g := range groupBy {
		name := fmt.Sprintf("group%d", i)
		if cr, ok := g.(*expr.ColRef); ok {
			name = cr.Name
		}
		s.schema = append(s.schema, storage.Column{Name: name, Type: g.Type()})
	}
	for _, spec := range aggs {
		ty, err := spec.ResultType()
		if err != nil {
			return s, err
		}
		s.schema = append(s.schema, storage.Column{Name: spec.OutputName(), Type: ty})
	}
	return s, nil
}

// SetShared wires the finished aggregate table to the semantic reuse
// cache; see SharedAgg. Must be set before Open.
func (s *AggState) SetShared(sa *SharedAgg) { s.shared = sa }

// Schema describes the output rows.
func (s *AggState) Schema() storage.Schema { return s.schema }

// Name renders the aggregation under an operator's display name.
func (s *AggState) Name(op string) string {
	aggs := make([]string, len(s.aggs))
	for i, a := range s.aggs {
		aggs[i] = a.String()
	}
	if len(s.groupBy) == 0 {
		return fmt.Sprintf("%s(%s)", op, strings.Join(aggs, ", "))
	}
	groups := make([]string, len(s.groupBy))
	for i, g := range s.groupBy {
		groups[i] = g.String()
	}
	return fmt.Sprintf("%s(%s GROUP BY %s)", op, strings.Join(aggs, ", "), strings.Join(groups, ", "))
}

// Open empties the state for one execution of agg, whose name the publish
// fault site carries. A re-Open without Close releases the stale charges
// first. The simulated accumulator region follows JoinTable.Open's rule:
// placed on the first Open under a CPU, kept across re-Opens.
func (s *AggState) Open(ctx *Context, agg Named) {
	s.publishFault = ctx.FaultPoint(agg, ":publish")
	s.table = expr.NewGroupTable(s.groupBy, s.aggs)
	ctx.ShrinkMem(s.memUsed)
	s.memUsed = 0
	if ctx.CPU != nil && s.region == 0 {
		s.region = ctx.CPU.AllocData(aggBuckets * 64)
	}
}

// Fold adds one input row to its group, creating (isNew) and charging the
// group on first sight, and models the transition functions touching the
// group's accumulator state.
func (s *AggState) Fold(ctx *Context, row storage.Row) (isNew bool, err error) {
	grp, isNew, err := s.table.Lookup(row)
	if err != nil {
		return false, err
	}
	if isNew {
		if err := s.charge(ctx, grp); err != nil {
			return false, err
		}
	}
	if err := grp.Add(row); err != nil {
		return false, err
	}
	addr := s.groupAddr(grp.Key)
	ctx.Read(addr, 64)
	ctx.Write(addr, 64)
	return isNew, nil
}

// charge charges what a new group retains for the life of the operator: its
// key string, key row, and one accumulator per aggregate.
func (s *AggState) charge(ctx *Context, grp *expr.Group) error {
	n := int64(len(grp.Key)) + int64(grp.Vals.ByteSize()) +
		int64(len(s.aggs))*hashEntryOverhead
	if err := ctx.GrowMem(n); err != nil {
		return err
	}
	s.memUsed += n
	return nil
}

// groupAddr maps a group key to its simulated accumulator address.
func (s *AggState) groupAddr(key string) uint64 {
	if s.region == 0 {
		return 0
	}
	var h uint64 = 1469598103934665603
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return s.region + (h%aggBuckets)*64
}

// Finish ends a complete fold: it sorts the groups into their deterministic
// output order and, on a reuse-cache miss, materializes the complete output
// — the rows Output will hand out; accumulator results are pure — and hands
// it to the cache with its retained-bytes estimate. The publish fault fires
// first, so a poisoned table can never be inserted.
func (s *AggState) Finish() error {
	s.table.Sort()
	if s.shared == nil || s.shared.Publish == nil {
		return nil
	}
	if err := s.publishFault.Fire(); err != nil {
		return err
	}
	rows, err := s.table.Rows()
	if err != nil {
		return err
	}
	var bytes int64
	for _, r := range rows {
		bytes += int64(r.ByteSize()) + hashEntryOverhead
	}
	s.shared.Publish(rows, bytes)
	return nil
}

// Outputs is the number of output rows: one per group, or the single row
// an ungrouped aggregation yields over zero input rows (COUNT(*) = 0, SUM =
// NULL, …).
func (s *AggState) Outputs() int {
	if s.table.EmptyUngrouped() {
		return 1
	}
	return s.table.Len()
}

// Output builds the i-th output row, in the order Finish left the groups.
func (s *AggState) Output(i int) (storage.Row, error) {
	if s.table.EmptyUngrouped() {
		return s.table.EmptyRow()
	}
	return s.table.Row(i), nil
}

// Close drops the groups and returns what was charged for them.
func (s *AggState) Close(ctx *Context) {
	s.table = nil
	ctx.ShrinkMem(s.memUsed)
	s.memUsed = 0
}
