package expr

import (
	"hash/maphash"

	"bufferdb/internal/storage"
)

// Block kernels. A block is a window of stored rows plus a selection vector:
// the ascending positions, within the window, of the rows still in play.
// Like the row kernels beside them (kernel.go) the block kernels are chosen
// once, at construction, and guard what they assumed — arity and the runtime
// Kind of every value they read. They differ in what a failed guard means:
// a block kernel has no generic twin to drop to, it reports the miss and its
// caller redoes the whole block through the row kernels, which yield the
// answer or the error the row path always has. So a block kernel covers only
// shapes that cannot raise (no division), touches no value the row path
// would not have touched (a conjunct reads only the rows the conjuncts
// before it kept), and leaves a miss to be found before any accumulator has
// moved. DESIGN.md §19 has the full rule.

// BlockPred is a WHERE clause compiled for blocks: an AND-chain of
// `column <cmp> constant` conjuncts, each in one of the classes colCmp
// names.
type BlockPred struct {
	conj  []colCmp
	arity int // the rows' least length: every conjunct's column is inside
}

// NewBlockPred compiles e, or returns nil when e is anything but such a
// chain.
func NewBlockPred(e Expr) *BlockPred {
	p := &BlockPred{}
	if !p.add(e) {
		return nil
	}
	return p
}

func (p *BlockPred) add(e Expr) bool {
	b, ok := e.(*Binary)
	switch {
	case !ok:
		return false
	case b.Op == OpAnd:
		return p.add(b.L) && p.add(b.R)
	case !b.Op.IsComparison():
		return false
	}
	cc, ok := b.colCmp()
	if ok {
		p.conj = append(p.conj, cc)
		p.arity = max(p.arity, cc.idx+1)
	}
	return ok
}

// Select narrows sel, in place, to the rows every conjunct accepts — a row
// whose conjunct is FALSE or NULL is dropped, as WHERE drops it — and
// returns the survivors. ok is false on a guard miss; sel is then garbage.
func (p *BlockPred) Select(rows []storage.Row, sel []int32) (out []int32, ok bool) {
	// Arity is checked for every row up front: the row kernels evaluate a
	// conjunct whose predecessor was NULL, and would report the short row
	// that a narrowed selection no longer holds.
	for _, i := range sel {
		if len(rows[i]) < p.arity {
			return nil, false
		}
	}
	for i := range p.conj {
		if sel, ok = p.conj[i].narrow(rows, sel); !ok {
			return nil, false
		}
	}
	return sel, true
}

func (c *colCmp) narrow(rows []storage.Row, sel []int32) ([]int32, bool) {
	n, idx, kind := 0, c.idx, c.kind
	var keep [3]bool
	for o, t := range c.out {
		keep[o] = t == triTrue
	}
	for _, i := range sel {
		v := &rows[i][idx]
		if v.Kind != kind {
			if v.Kind != storage.TypeNull {
				return nil, false
			}
			continue
		}
		var o int
		switch kind {
		case storage.TypeFloat64:
			o = order3(v.F, c.cf)
		case storage.TypeString:
			o = order3(v.S, c.cs)
		default:
			o = order3(v.I, c.ci)
		}
		if keep[o] {
			sel[n] = i
			n++
		}
	}
	return sel[:n], true
}

// nullMask marks the selected rows whose value is NULL. It is cleared only
// when the first NULL of a block is seen, so consumers of a block without
// NULLs test one flag per row and never read it.
type nullMask struct {
	any  bool
	bits []bool
}

func (m *nullMask) set(j, n int) {
	if !m.any {
		if cap(m.bits) < n {
			m.bits = make([]bool, n)
		}
		m.bits = m.bits[:n]
		clear(m.bits)
		m.any = true
	}
	m.bits[j] = true
}

func (m *nullMask) null(j int) bool { return m.any && m.bits[j] }

// blockFloat is a numeric expression compiled for blocks: DOUBLE and BIGINT
// columns, numeric constants, and + - * over them — the part of the float
// kernels (kernel.go) that cannot raise. Only leaves own a vector; an
// arithmetic node computes into the vector of an operand.
type blockFloat struct {
	op   BinOp
	l, r *blockFloat // arithmetic node

	idx  int // column leaf
	kind storage.Type

	isConst bool // constant leaf: buf is the constant, repeated
	c       float64

	buf []float64
}

// newBlockFloat compiles e, or returns nil when e has a node outside the
// set above.
func newBlockFloat(e Expr) *blockFloat {
	if v, ok := constOf(e); ok {
		if !v.Kind.Numeric() || v.Kind != e.Type() {
			return nil
		}
		return &blockFloat{isConst: true, c: v.AsFloat()}
	}
	switch n := e.(type) {
	case *ColRef:
		if n.Typ.Numeric() {
			return &blockFloat{idx: n.Idx, kind: n.Typ}
		}
	case *Binary:
		// flt is set exactly for DOUBLE arithmetic over numeric operands.
		if n.flt != nil && n.Op != OpDiv {
			if l, r := newBlockFloat(n.L), newBlockFloat(n.R); l != nil && r != nil {
				return &blockFloat{op: n.Op, l: l, r: r}
			}
		}
	}
	return nil
}

// eval computes the expression over the selected rows: element j belongs to
// rows[sel[j]], is undefined where m marks a NULL, and stays valid until the
// next eval. A nil result is a guard miss.
func (k *blockFloat) eval(rows []storage.Row, sel []int32, m *nullMask) []float64 {
	n := len(sel)
	if k.l != nil {
		l := k.l.eval(rows, sel, m)
		if l == nil {
			return nil
		}
		r := k.r.eval(rows, sel, m)
		if r == nil {
			return nil
		}
		out := l
		if k.l.isConst {
			out = r // never both: a column-free subtree is folded
		}
		l, r, out = l[:n], r[:n], out[:n]
		switch k.op {
		case OpAdd:
			for j := range out {
				out[j] = l[j] + r[j]
			}
		case OpSub:
			for j := range out {
				out[j] = l[j] - r[j]
			}
		default:
			for j := range out {
				out[j] = l[j] * r[j]
			}
		}
		return out
	}
	if len(k.buf) < n {
		k.buf = make([]float64, n)
		if k.isConst {
			for j := range k.buf {
				k.buf[j] = k.c
			}
		}
	}
	out := k.buf[:n]
	if k.isConst {
		return out
	}
	idx, kind := k.idx, k.kind
	for j, i := range sel {
		r := rows[i]
		if idx >= len(r) {
			return nil
		}
		v := &r[idx]
		switch {
		case v.Kind == storage.TypeNull:
			m.set(j, n)
		case v.Kind != kind:
			return nil
		case kind == storage.TypeFloat64:
			out[j] = v.F
		default:
			out[j] = float64(v.I)
		}
	}
	return out
}

// BlockFold is the block front of a GroupTable: it assigns the selected rows
// of a block their groups and folds them into the groups' accumulators, one
// aggregate at a time in row order — so every accumulator sees the values,
// in the order, Group.Add would have given it, and float sums come out bit
// for bit the same. It covers GROUP BY lists of BIGINT, DATE, BOOLEAN and
// VARCHAR column references (or none) and COUNT(*), COUNT(x), DOUBLE SUM(x)
// and AVG(x) with x a blockFloat.
//
// Groups are found through an open-addressing index over a hash of the key
// values, verified against Group.Vals; a key the index has not seen goes
// through GroupTable.Lookup, so the block front and the row path create —
// and find — the same groups of the same table, in the same order.
//
// A BlockFold is built once per operator and owns the operator's scratch;
// Attach binds it to the fresh table of each Open.
type BlockFold struct {
	keys  []blockKey
	funcs []AggFunc
	args  []*blockFloat // by aggregate; nil for COUNT(*)

	t      *GroupTable
	seed   maphash.Seed
	slots  []int32  // group ordinal + 1, 0 = empty
	hashes []uint64 // by slot
	used   int

	gids  []int32
	vals  [][]float64 // by aggregate: the argument vector of this block
	masks []nullMask
}

type blockKey struct {
	idx  int
	kind storage.Type
}

// NewBlockFold compiles a grouping, or returns nil when a group expression
// or an aggregate is outside what BlockFold covers.
func NewBlockFold(groupBy []Expr, aggs []AggSpec) *BlockFold {
	f := &BlockFold{seed: maphash.MakeSeed()}
	for _, e := range groupBy {
		col, ok := e.(*ColRef)
		if !ok {
			return nil
		}
		switch col.Typ {
		case storage.TypeInt64, storage.TypeDate, storage.TypeBool, storage.TypeString:
			f.keys = append(f.keys, blockKey{idx: col.Idx, kind: col.Typ})
		default:
			return nil
		}
	}
	for _, spec := range aggs {
		var arg *blockFloat
		switch spec.Func {
		case AggCountStar:
		case AggCount, AggAvg:
			arg = newBlockFloat(spec.Arg)
		case AggSum:
			if spec.Arg != nil && spec.Arg.Type() == storage.TypeFloat64 {
				arg = newBlockFloat(spec.Arg)
			}
		}
		if arg == nil && spec.Func != AggCountStar {
			return nil
		}
		f.funcs = append(f.funcs, spec.Func)
		f.args = append(f.args, arg)
	}
	f.vals = make([][]float64, len(aggs))
	f.masks = make([]nullMask, len(aggs))
	return f
}

// Attach points the front at t, which must be a table over the grouping f
// was compiled from, and forgets the groups of the table before it.
func (f *BlockFold) Attach(t *GroupTable) {
	f.t = t
	clear(f.slots)
	f.used = 0
}

// Fold folds the selected rows into their groups. It is all or nothing:
// every argument vector and every group id is computed before an
// accumulator is touched, and on a guard miss (ok false) none has been —
// the caller then folds the block row by row. Groups the block created
// before the miss stay in the table, empty, where the row path finds them.
func (f *BlockFold) Fold(rows []storage.Row, sel []int32) (ok bool) {
	if len(sel) == 0 {
		return true
	}
	for k, arg := range f.args {
		if arg == nil {
			continue
		}
		f.masks[k].any = false
		if f.vals[k] = arg.eval(rows, sel, &f.masks[k]); f.vals[k] == nil {
			return false
		}
	}
	if cap(f.gids) < len(sel) {
		f.gids = make([]int32, len(sel))
	}
	gids := f.gids[:len(sel)]
	if !f.groupIDs(rows, sel, gids) {
		return false
	}
	groups := f.t.order
	for k, fn := range f.funcs {
		vals, m := f.vals[k], &f.masks[k]
		switch fn {
		case AggCountStar:
			for _, g := range gids {
				groups[g].accs[k].(*countAcc).n++
			}
		case AggCount:
			for j, g := range gids {
				if !m.null(j) {
					groups[g].accs[k].(*countAcc).n++
				}
			}
		case AggSum:
			for j, g := range gids {
				if !m.null(j) {
					a := groups[g].accs[k].(*sumAcc)
					a.any = true
					a.sumF += vals[j]
				}
			}
		case AggAvg:
			for j, g := range gids {
				if !m.null(j) {
					a := groups[g].accs[k].(*avgAcc)
					a.n++
					a.sum += vals[j]
				}
			}
		}
	}
	return true
}

// nullKeyHash stands for a NULL group value in the key hash.
const nullKeyHash = 0x9e3779b97f4a7c15

// keyHash folds one key value's hash x into the hash h of the values before
// it.
func keyHash(h, x uint64) uint64 {
	h = (h ^ x) * 0xff51afd7ed558ccd
	return h ^ h>>32
}

// groupIDs writes the group ordinal of every selected row to gids.
func (f *BlockFold) groupIDs(rows []storage.Row, sel, gids []int32) bool {
	if len(f.keys) == 0 {
		// One group, created — as Lookup creates it — by the first row.
		if f.t.Len() == 0 {
			if _, _, err := f.t.Lookup(rows[sel[0]]); err != nil {
				return false
			}
		}
		clear(gids)
		return true
	}
	for j, i := range sel {
		r := rows[i]
		var h uint64
		for _, key := range f.keys {
			if key.idx >= len(r) {
				return false
			}
			v := &r[key.idx]
			x := uint64(nullKeyHash)
			switch {
			case v.Kind == storage.TypeNull:
			case v.Kind != key.kind:
				return false
			case key.kind == storage.TypeString:
				x = maphash.String(f.seed, v.S)
			default:
				x = uint64(v.I)
			}
			h = keyHash(h, x)
		}
		g := f.find(h, r)
		if g == nil {
			return false
		}
		gids[j] = g.ord
	}
	return true
}

// find returns the group of r, whose key hashes to h; nil is a guard miss.
func (f *BlockFold) find(h uint64, r storage.Row) *Group {
	if 2*(f.used+1) > len(f.slots) {
		f.grow()
	}
	mask := len(f.slots) - 1
	s := int(h) & mask
	for ; f.slots[s] != 0; s = (s + 1) & mask {
		if g := f.t.order[f.slots[s]-1]; f.hashes[s] == h && f.holds(g, r) {
			return g
		}
	}
	g, _, err := f.t.Lookup(r)
	if err != nil || !f.holds(g, r) {
		// Lookup keys groups by their rendering, under which values of
		// different Kinds can meet (1 and '1'); such a table is the row
		// path's business.
		return nil
	}
	f.slots[s], f.hashes[s] = g.ord+1, h
	f.used++
	return g
}

// holds reports whether g's key is r's: Kind for Kind, value for value.
func (f *BlockFold) holds(g *Group, r storage.Row) bool {
	for k, key := range f.keys {
		gv, rv := &g.Vals[k], &r[key.idx]
		switch {
		case gv.Kind != rv.Kind:
			return false
		case gv.Kind == storage.TypeNull:
		case gv.Kind == storage.TypeString:
			if gv.S != rv.S {
				return false
			}
		case gv.I != rv.I:
			return false
		}
	}
	return true
}

func (f *BlockFold) grow() {
	slots, hashes := f.slots, f.hashes
	n := max(64, 2*len(slots))
	f.slots, f.hashes = make([]int32, n), make([]uint64, n)
	for s, o := range slots {
		if o != 0 {
			t := int(hashes[s]) & (n - 1)
			for f.slots[t] != 0 {
				t = (t + 1) & (n - 1)
			}
			f.slots[t], f.hashes[t] = o, hashes[s]
		}
	}
}
