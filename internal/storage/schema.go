package storage

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation or of an intermediate result.
type Column struct {
	// Table is the (possibly aliased) relation name qualifying the column.
	// It is empty for computed columns such as aggregate outputs.
	Table string
	// Name is the attribute name.
	Name string
	// Type is the attribute type.
	Type Type
}

// QualifiedName returns "table.name", or just "name" when unqualified.
func (c Column) QualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Schema is an ordered list of columns describing a row shape.
type Schema []Column

// ColumnIndex resolves a column reference against the schema.
// A qualified reference (table != "") must match both parts; an unqualified
// reference matches by name and must be unambiguous.
// It returns -1 if the column is not found, and an error when an unqualified
// name matches more than one column.
func (s Schema) ColumnIndex(table, name string) (int, error) {
	found := -1
	for i, c := range s {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("storage: ambiguous column reference %q", name)
		}
		found = i
	}
	return found, nil
}

// Concat returns the schema of the concatenation of two row shapes, as
// produced by a join operator.
func (s Schema) Concat(other Schema) Schema {
	out := make(Schema, 0, len(s)+len(other))
	out = append(out, s...)
	out = append(out, other...)
	return out
}

// String renders the schema for EXPLAIN output and error messages.
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.QualifiedName() + " " + c.Type.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Row is one tuple: a flat slice of values positionally aligned with a
// Schema. Operators hand rows to their parents by reference (the slice
// header), never by copying the values — this is exactly the property the
// paper's buffer operator exploits: it stores an array of tuple references
// and requires only that the referenced tuples stay alive until consumed.
type Row []Value

// Clone returns a deep copy of the row. The engine itself never clones on
// the hot path; Clone exists for operators that must retain input rows past
// their producer's lifetime guarantees (e.g. the copy-buffer ablation).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// ByteSize returns the approximate in-memory size of the row, used by the
// CPU simulator to model data-cache traffic.
func (r Row) ByteSize() int {
	n := 0
	for i := range r {
		n += r[i].ByteSize()
	}
	return n
}

// Concat returns the concatenation of two rows into a freshly allocated row.
func (r Row) Concat(other Row) Row {
	out := make(Row, 0, len(r)+len(other))
	out = append(out, r...)
	out = append(out, other...)
	return out
}

// Natives renders the row into dst as the plain Go values cursors hand
// their callers (Value.Native) and returns it, never nil; dst is replaced
// only when it is too short, so a cursor reuses one slice for every row.
func (r Row) Natives(dst []any) []any {
	if dst == nil || cap(dst) < len(r) {
		dst = make([]any, len(r))
	}
	dst = dst[:len(r)]
	for i := range r {
		dst[i] = r[i].Native()
	}
	return dst
}

// String renders the row as a pipe-separated line, used in tests and by the
// CLI result printer.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i := range r {
		parts[i] = r[i].String()
	}
	return strings.Join(parts, "|")
}
