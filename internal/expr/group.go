package expr

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"bufferdb/internal/storage"
)

// Group is the retained state of one GROUP BY group.
type Group struct {
	// Key is the injective rendering of Vals the group is hashed under.
	Key string
	// Vals are the group's GROUP BY values.
	Vals storage.Row
	accs []Accumulator // one per aggregate
	ord  int32         // creation ordinal: the group id the block front hands out
}

// Add folds one input row into every aggregate of the group.
func (g *Group) Add(row storage.Row) error {
	for _, acc := range g.accs {
		if err := acc.Add(row); err != nil {
			return err
		}
	}
	return nil
}

// GroupTable is the hashed grouping state behind every engine's aggregation
// operator. Lookup evaluates the GROUP BY expressions into a scratch row and
// encodes them into a scratch buffer, so finding an existing group allocates
// nothing; the key string, key row and accumulators are allocated once per
// group. The operators keep what is theirs: memory charging, fault sites,
// stats and the simulated group-table traffic.
type GroupTable struct {
	groupBy []Expr
	aggs    []AggSpec
	groups  map[string]*Group
	order   []*Group
	vals    storage.Row
	buf     []byte
}

// NewGroupTable returns an empty table for the given grouping.
func NewGroupTable(groupBy []Expr, aggs []AggSpec) *GroupTable {
	return &GroupTable{
		groupBy: groupBy,
		aggs:    aggs,
		groups:  make(map[string]*Group),
		vals:    make(storage.Row, len(groupBy)),
	}
}

// Lookup returns the group row belongs to, creating it (isNew) on first
// sight. It does not add the row to the group.
func (t *GroupTable) Lookup(row storage.Row) (g *Group, isNew bool, err error) {
	t.buf = t.buf[:0]
	for i, e := range t.groupBy {
		v, err := e.Eval(row)
		if err != nil {
			return nil, false, err
		}
		t.vals[i] = v
		if i > 0 {
			t.buf = append(t.buf, '|')
		}
		t.buf = appendKey(t.buf, v)
	}
	if g, ok := t.groups[string(t.buf)]; ok {
		return g, false, nil
	}
	g = &Group{Key: string(t.buf), Vals: t.vals.Clone(), accs: make([]Accumulator, len(t.aggs)), ord: int32(len(t.order))}
	for i, spec := range t.aggs {
		if g.accs[i], err = NewAccumulator(spec); err != nil {
			return nil, false, err
		}
	}
	t.groups[g.Key] = g
	t.order = append(t.order, g)
	return g, true, nil
}

// appendKey appends the key encoding of v: Value.String's rendering, except
// that '\' and '|' inside strings are escaped and NULL is `\N`, which no
// escaped string can spell. Fields joined by '|' therefore decode uniquely:
// distinct key rows never share a group.
func appendKey(buf []byte, v storage.Value) []byte {
	switch v.Kind {
	case storage.TypeNull:
		return append(buf, `\N`...)
	case storage.TypeString:
		s := v.S
		for {
			i := strings.IndexAny(s, `\|`)
			if i < 0 {
				return append(buf, s...)
			}
			buf = append(append(buf, s[:i]...), '\\', s[i])
			s = s[i+1:]
		}
	case storage.TypeInt64:
		return strconv.AppendInt(buf, v.I, 10)
	case storage.TypeFloat64:
		// 0 and -0 are equal to `=` and to storage.Compare: one group.
		if v.F == 0 {
			return append(buf, '0')
		}
		return strconv.AppendFloat(buf, v.F, 'f', -1, 64)
	case storage.TypeDate:
		return time.Unix(v.I*86400, 0).UTC().AppendFormat(buf, "2006-01-02")
	default:
		return append(buf, v.String()...)
	}
}

// Sort puts the groups into key-value order, the deterministic order the
// operators emit them in.
func (t *GroupTable) Sort() {
	sort.Slice(t.order, func(i, j int) bool {
		vi, vj := t.order[i].Vals, t.order[j].Vals
		for k := range vi {
			if c := storage.Compare(vi[k], vj[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// Len returns the number of groups.
func (t *GroupTable) Len() int { return len(t.order) }

// Group returns the i-th group: in creation order until Sort, in key order
// after it.
func (t *GroupTable) Group(i int) *Group { return t.order[i] }

// Row builds the output row of the i-th group: key values, then aggregate
// results.
func (t *GroupTable) Row(i int) storage.Row {
	g := t.order[i]
	out := make(storage.Row, 0, len(g.Vals)+len(g.accs))
	out = append(out, g.Vals...)
	for _, acc := range g.accs {
		out = append(out, acc.Result())
	}
	return out
}

// EmptyRow is the single row an ungrouped aggregation yields over zero
// input rows (COUNT(*) = 0, SUM = NULL, …).
func (t *GroupTable) EmptyRow() (storage.Row, error) {
	out := make(storage.Row, 0, len(t.aggs))
	for _, spec := range t.aggs {
		acc, err := NewAccumulator(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, acc.Result())
	}
	return out, nil
}

// EmptyUngrouped reports whether the output is EmptyRow: no GROUP BY and
// no input seen.
func (t *GroupTable) EmptyUngrouped() bool { return len(t.groupBy) == 0 && len(t.order) == 0 }

// Rows builds the complete output, in the order Sort left the groups.
func (t *GroupTable) Rows() ([]storage.Row, error) {
	if t.EmptyUngrouped() {
		out, err := t.EmptyRow()
		return []storage.Row{out}, err
	}
	rows := make([]storage.Row, t.Len())
	for i := range rows {
		rows[i] = t.Row(i)
	}
	return rows, nil
}
