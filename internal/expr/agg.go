package expr

import (
	"fmt"

	"bufferdb/internal/storage"
)

// AggFunc enumerates the aggregate functions.
type AggFunc uint8

// Aggregate functions supported by the engine — exactly the set whose
// instruction footprints the paper's Table 2 reports (COUNT, MIN, MAX,
// SUM, AVG).
const (
	AggCountStar AggFunc = iota // COUNT(*)
	AggCount                    // COUNT(expr): non-NULL inputs
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL spelling.
func (f AggFunc) String() string {
	switch f {
	case AggCountStar:
		return "COUNT(*)"
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(f))
	}
}

// AggSpec is one aggregate call in a SELECT list.
type AggSpec struct {
	Func AggFunc
	// Arg is the argument expression; nil for COUNT(*).
	Arg Expr
	// As is the output column name ("" defaults to a rendering of the call).
	As string
}

// OutputName returns the column name of this aggregate in the result schema.
func (a AggSpec) OutputName() string {
	if a.As != "" {
		return a.As
	}
	if a.Func == AggCountStar {
		return "count"
	}
	return a.Func.String() + "(" + a.Arg.String() + ")"
}

// ResultType returns the static output type of the aggregate.
func (a AggSpec) ResultType() (storage.Type, error) {
	switch a.Func {
	case AggCountStar, AggCount:
		return storage.TypeInt64, nil
	case AggAvg:
		if a.Arg == nil || (!a.Arg.Type().Numeric() && a.Arg.Type() != storage.TypeNull) {
			return storage.TypeNull, fmt.Errorf("expr: AVG needs a numeric argument")
		}
		return storage.TypeFloat64, nil
	case AggSum:
		if a.Arg == nil || (!a.Arg.Type().Numeric() && a.Arg.Type() != storage.TypeNull) {
			return storage.TypeNull, fmt.Errorf("expr: SUM needs a numeric argument")
		}
		return a.Arg.Type(), nil
	case AggMin, AggMax:
		if a.Arg == nil {
			return storage.TypeNull, fmt.Errorf("expr: %v needs an argument", a.Func)
		}
		return a.Arg.Type(), nil
	default:
		return storage.TypeNull, fmt.Errorf("expr: unknown aggregate %v", a.Func)
	}
}

// String renders the aggregate call.
func (a AggSpec) String() string {
	if a.Func == AggCountStar {
		return "COUNT(*)"
	}
	return a.Func.String() + "(" + a.Arg.String() + ")"
}

// Accumulator is the per-group running state of one aggregate.
type Accumulator interface {
	// Add folds one input row into the state.
	Add(row storage.Row) error
	// Result returns the final aggregate value.
	Result() storage.Value
}

// NewAccumulator builds the accumulator for a spec.
func NewAccumulator(spec AggSpec) (Accumulator, error) {
	rt, err := spec.ResultType()
	if err != nil {
		return nil, err
	}
	switch spec.Func {
	case AggCountStar:
		return &countAcc{star: true}, nil
	case AggCount:
		return &countAcc{arg: spec.Arg}, nil
	case AggSum:
		return &sumAcc{arg: spec.Arg, farg: floatOperandFor(spec.Arg), isInt: rt == storage.TypeInt64}, nil
	case AggAvg:
		return &avgAcc{arg: spec.Arg, farg: floatOperandFor(spec.Arg)}, nil
	case AggMin:
		return &minMaxAcc{arg: spec.Arg, wantLess: true}, nil
	case AggMax:
		return &minMaxAcc{arg: spec.Arg, wantLess: false}, nil
	default:
		return nil, fmt.Errorf("expr: unknown aggregate %v", spec.Func)
	}
}

type countAcc struct {
	star bool
	arg  Expr
	n    int64
}

func (a *countAcc) Add(row storage.Row) error {
	if a.star {
		a.n++
		return nil
	}
	v, err := a.arg.Eval(row)
	if err != nil {
		return err
	}
	if !v.IsNull() {
		a.n++
	}
	return nil
}

func (a *countAcc) Result() storage.Value { return storage.NewInt(a.n) }

// sumAcc and avgAcc read a DOUBLE argument straight from its float kernel
// (farg) and evaluate it to a Value only when that declines; integer SUM
// always takes the Value path.
type sumAcc struct {
	arg   Expr
	farg  floatOperand
	isInt bool
	any   bool
	sumI  int64
	sumF  float64
}

func (a *sumAcc) Add(row storage.Row) error {
	if !a.isInt {
		f, null, err := a.farg.load(row)
		if err != errFallback {
			if err == nil && !null {
				a.any = true
				a.sumF += f
			}
			return err
		}
	}
	v, err := a.arg.Eval(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	a.any = true
	if a.isInt {
		a.sumI += v.I
	} else {
		a.sumF += v.AsFloat()
	}
	return nil
}

func (a *sumAcc) Result() storage.Value {
	if !a.any {
		return storage.Null // SUM over no rows is NULL
	}
	if a.isInt {
		return storage.NewInt(a.sumI)
	}
	return storage.NewFloat(a.sumF)
}

type avgAcc struct {
	arg  Expr
	farg floatOperand
	n    int64
	sum  float64
}

func (a *avgAcc) Add(row storage.Row) error {
	f, null, err := a.farg.load(row)
	if err != errFallback {
		if err == nil && !null {
			a.n++
			a.sum += f
		}
		return err
	}
	v, err := a.arg.Eval(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	a.n++
	a.sum += v.AsFloat()
	return nil
}

func (a *avgAcc) Result() storage.Value {
	if a.n == 0 {
		return storage.Null
	}
	return storage.NewFloat(a.sum / float64(a.n))
}

type minMaxAcc struct {
	arg      Expr
	wantLess bool
	best     storage.Value
	any      bool
}

func (a *minMaxAcc) Add(row storage.Row) error {
	v, err := a.arg.Eval(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if !a.any {
		a.best, a.any = v, true
		return nil
	}
	c := storage.Compare(v, a.best)
	if (a.wantLess && c < 0) || (!a.wantLess && c > 0) {
		a.best = v
	}
	return nil
}

func (a *minMaxAcc) Result() storage.Value {
	if !a.any {
		return storage.Null
	}
	return a.best
}
