// Package storage provides the in-memory storage substrate for bufferdb:
// typed values, row tuples, schemas, heap-resident relations and a catalog.
//
// The engine is memory-resident by design, mirroring the experimental setup
// of Zhou & Ross (SIGMOD 2004), where the buffer pool is sized so that all
// tables fit in RAM and I/O never interferes with the CPU-cache study.
package storage

import (
	"fmt"
	"strconv"
	"time"
)

// Type identifies the runtime type of a Value.
type Type uint8

// Supported column types. Dates are stored as days since the Unix epoch so
// that date comparison and arithmetic are plain integer operations, as in
// most main-memory engines.
const (
	TypeNull Type = iota
	TypeBool
	TypeInt64
	TypeFloat64
	TypeString
	TypeDate
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeBool:
		return "BOOLEAN"
	case TypeInt64:
		return "BIGINT"
	case TypeFloat64:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	case TypeDate:
		return "DATE"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Numeric reports whether values of this type participate in arithmetic.
func (t Type) Numeric() bool {
	return t == TypeInt64 || t == TypeFloat64
}

// Comparable reports whether values of this type can be ordered.
func (t Type) Comparable() bool {
	return t != TypeNull
}

// Value is a single typed datum. It is a tagged union kept deliberately
// unboxed (no interface{}) so that tuples are flat []Value slices with no
// per-datum heap allocation on the query hot path.
type Value struct {
	// Kind is the runtime type tag.
	Kind Type
	// I holds TypeInt64 values, TypeDate values (days since epoch) and
	// TypeBool values (0 or 1).
	I int64
	// F holds TypeFloat64 values.
	F float64
	// S holds TypeString values.
	S string
}

// Null is the SQL NULL value.
var Null = Value{Kind: TypeNull}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{Kind: TypeInt64, I: v} }

// NewFloat returns a double-precision value.
func NewFloat(v float64) Value { return Value{Kind: TypeFloat64, F: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{Kind: TypeString, S: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	if v {
		return Value{Kind: TypeBool, I: 1}
	}
	return Value{Kind: TypeBool, I: 0}
}

// NewDate returns a date value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{Kind: TypeDate, I: days} }

// epochDay converts a civil date to days since 1970-01-01.
func epochDay(year, month, day int) int64 {
	t := time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
	return t.Unix() / 86400
}

// DateFromYMD returns a date value for the given civil date.
func DateFromYMD(year, month, day int) Value {
	return NewDate(epochDay(year, month, day))
}

// ParseDate parses a 'YYYY-MM-DD' literal into a date value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("storage: invalid date literal %q: %w", s, err)
	}
	return NewDate(t.Unix() / 86400), nil
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == TypeNull }

// Bool returns the boolean content; callers must check Kind first.
func (v Value) Bool() bool { return v.I != 0 }

// AsFloat returns the numeric content widened to float64.
// It is only meaningful for numeric kinds.
func (v Value) AsFloat() float64 {
	if v.Kind == TypeFloat64 {
		return v.F
	}
	return float64(v.I)
}

// Native converts the value to the plain Go value every cursor hands its
// caller: nil, bool, int64, float64, string, or a midnight-UTC time.Time
// for a date. The embedded, served and coordinator cursors all go through
// it, so the three tiers agree on dynamic types.
func (v Value) Native() any {
	switch v.Kind {
	case TypeNull:
		return nil
	case TypeBool:
		return v.Bool()
	case TypeInt64:
		return v.I
	case TypeFloat64:
		return v.F
	case TypeString:
		return v.S
	case TypeDate:
		return time.Unix(v.I*86400, 0).UTC()
	default:
		return v.String()
	}
}

// String renders the value for display and for deterministic test output.
func (v Value) String() string {
	switch v.Kind {
	case TypeNull:
		return "NULL"
	case TypeBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case TypeInt64:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat64:
		return strconv.FormatFloat(v.F, 'f', -1, 64)
	case TypeString:
		return v.S
	case TypeDate:
		t := time.Unix(v.I*86400, 0).UTC()
		return t.Format("2006-01-02")
	default:
		return fmt.Sprintf("<bad value kind %d>", v.Kind)
	}
}

// Compare orders two values of compatible types.
// It returns -1, 0 or +1. NULL sorts before every non-NULL value, which
// matches the engine's internal sort convention.
//
// Int64 and Float64 compare with each other by widening to float64; Date
// compares with Date; Bool with Bool (false < true); String with String.
// Comparing incompatible kinds panics: the analyzer guarantees well-typed
// plans, so an incompatible comparison here is an engine bug, not user error.
func Compare(a, b Value) int {
	if a.Kind == TypeNull || b.Kind == TypeNull {
		switch {
		case a.Kind == b.Kind:
			return 0
		case a.Kind == TypeNull:
			return -1
		default:
			return 1
		}
	}
	switch {
	case a.Kind == TypeInt64 && b.Kind == TypeInt64,
		a.Kind == TypeDate && b.Kind == TypeDate,
		a.Kind == TypeBool && b.Kind == TypeBool:
		return cmpInt64(a.I, b.I)
	case a.Kind.Numeric() && b.Kind.Numeric():
		return cmpFloat64(a.AsFloat(), b.AsFloat())
	case a.Kind == TypeString && b.Kind == TypeString:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		default:
			return 0
		}
	default:
		panic(fmt.Sprintf("storage: cannot compare %v with %v", a.Kind, b.Kind))
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values are equal under Compare semantics,
// with NULL equal only to NULL (this is the grouping/join-key notion of
// equality, not three-valued SQL equality).
func Equal(a, b Value) bool {
	if a.Kind == TypeNull || b.Kind == TypeNull {
		return a.Kind == b.Kind
	}
	return Compare(a, b) == 0
}

// ByteSize returns the approximate in-memory size of the value in bytes.
// The CPU simulator uses it to model data-cache traffic per tuple.
func (v Value) ByteSize() int {
	const header = 16 // tag + one machine word, rounded
	if v.Kind == TypeString {
		return header + len(v.S)
	}
	return header
}
