package expr

import (
	"fmt"

	"bufferdb/internal/storage"
)

// Arg supplies the value of statement parameter param, converted to kind —
// the kind the parameter's constant had when the expression was built.
type Arg func(param int, kind storage.Type) (storage.Value, error)

// Rebind returns e with every statement parameter (Const.Param,
// Like.PatternParam) replaced by arg's value. Binding is construction: each
// node that holds a parameter is rebuilt through its constructor, so
// constant folding, kernel choice and LIKE compilation come out exactly as
// for an expression built from the new values. A subtree without parameters
// is returned as it is; a node Rebind does not know fails the bind.
func Rebind(e Expr, arg Arg) (Expr, error) {
	switch n := e.(type) {
	case *ColRef:
		return n, nil
	case *Const:
		if n.Param == 0 {
			return n, nil
		}
		v, err := arg(n.Param, n.Val.Kind)
		if err != nil {
			return nil, err
		}
		return &Const{Val: v, Param: n.Param}, nil
	case *Binary:
		l, err := Rebind(n.L, arg)
		if err != nil {
			return nil, err
		}
		r, err := Rebind(n.R, arg)
		if err != nil {
			return nil, err
		}
		if l == n.L && r == n.R {
			return n, nil
		}
		return NewBinary(n.Op, l, r)
	case *Not:
		inner, err := Rebind(n.E, arg)
		if err != nil || inner == n.E {
			return n, err
		}
		return NewNot(inner)
	case *Neg:
		inner, err := Rebind(n.E, arg)
		if err != nil || inner == n.E {
			return n, err
		}
		return NewNeg(inner)
	case *IsNull:
		inner, err := Rebind(n.E, arg)
		if err != nil || inner == n.E {
			return n, err
		}
		return &IsNull{E: inner, Negate: n.Negate}, nil
	case *Like:
		inner, err := Rebind(n.E, arg)
		if err != nil {
			return nil, err
		}
		pattern := n.Pattern
		if n.PatternParam != 0 {
			v, err := arg(n.PatternParam, storage.TypeString)
			if err != nil {
				return nil, err
			}
			pattern = v.S
		} else if inner == n.E {
			return n, nil
		}
		l, err := NewLike(inner, pattern, n.Negate)
		if err != nil {
			return nil, err
		}
		l.PatternParam = n.PatternParam
		return l, nil
	case *Case:
		whens := make([]When, len(n.Whens))
		changed := false
		for i, w := range n.Whens {
			cond, err := Rebind(w.Cond, arg)
			if err != nil {
				return nil, err
			}
			then, err := Rebind(w.Then, arg)
			if err != nil {
				return nil, err
			}
			whens[i] = When{Cond: cond, Then: then}
			changed = changed || cond != w.Cond || then != w.Then
		}
		els := n.Else
		if els != nil {
			var err error
			if els, err = Rebind(els, arg); err != nil {
				return nil, err
			}
		}
		if !changed && els == n.Else {
			return n, nil
		}
		return NewCase(whens, els)
	default:
		return nil, fmt.Errorf("expr: cannot rebind %T", e)
	}
}
