package sql

import "strings"

// SelectStmt is the parsed form of a SELECT statement.
type SelectStmt struct {
	Items   []SelectItem
	From    []TableRef
	Joins   []JoinClause
	Where   Node
	GroupBy []Node
	OrderBy []OrderItem
	// Limit is -1 when absent.
	Limit int
}

// SelectItem is one target-list entry.
type SelectItem struct {
	// Star marks SELECT *.
	Star bool
	Expr Node
	// Alias is the AS name ("" when absent).
	Alias string
}

// TableRef names a FROM relation with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name the relation is referenced by.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is an explicit JOIN … ON ….
type JoinClause struct {
	Table TableRef
	On    Node
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Node
	Desc bool
}

// Node is an AST expression node.
type Node interface {
	astNode()
}

// Ident is a possibly-qualified column reference.
type Ident struct {
	Table string // "" when unqualified
	Name  string
}

// NumberLit is an integer or decimal literal. Slot, here and on the other
// literal nodes, is the literal's bound-literal slot (see Shape); 0 when it
// is pinned or was not lexed from a statement.
type NumberLit struct {
	Text  string
	IsInt bool
	Slot  int
}

// StringLit is a quoted string literal.
type StringLit struct {
	Val  string
	Slot int
}

// DateLit is DATE 'yyyy-mm-dd'.
type DateLit struct {
	Val  string
	Slot int
}

// IntervalLit is INTERVAL 'n' DAY|MONTH|YEAR, normalized to days.
type IntervalLit struct {
	Days int64
}

// NullLit is the NULL keyword.
type NullLit struct{}

// BoolLit is TRUE or FALSE.
type BoolLit struct {
	Val bool
}

// BinaryExpr applies a binary operator (arithmetic, comparison, AND, OR).
type BinaryExpr struct {
	Op   string // "+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"
	L, R Node
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op string // "NOT", "-"
	E  Node
}

// BetweenExpr is X [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	E      Node
	Lo, Hi Node
	Negate bool
}

// LikeExpr is X [NOT] LIKE 'pattern'. Slot is the pattern's bound-literal
// slot.
type LikeExpr struct {
	E       Node
	Pattern string
	Negate  bool
	Slot    int
}

// IsNullExpr is X IS [NOT] NULL.
type IsNullExpr struct {
	E      Node
	Negate bool
}

// FuncCall is an aggregate call: COUNT/SUM/AVG/MIN/MAX.
type FuncCall struct {
	Name string // upper-case
	Star bool   // COUNT(*)
	Arg  Node   // nil for COUNT(*)
}

// CaseExpr is a searched CASE.
type CaseExpr struct {
	Whens []WhenClause
	Else  Node // nil when absent
}

// WhenClause is one WHEN … THEN … arm.
type WhenClause struct {
	Cond Node
	Then Node
}

// InExpr is X [NOT] IN (v1, v2, …).
type InExpr struct {
	E      Node
	List   []Node
	Negate bool
}

func (*Ident) astNode()       {}
func (*NumberLit) astNode()   {}
func (*StringLit) astNode()   {}
func (*DateLit) astNode()     {}
func (*IntervalLit) astNode() {}
func (*NullLit) astNode()     {}
func (*BoolLit) astNode()     {}
func (*BinaryExpr) astNode()  {}
func (*UnaryExpr) astNode()   {}
func (*BetweenExpr) astNode() {}
func (*LikeExpr) astNode()    {}
func (*IsNullExpr) astNode()  {}
func (*FuncCall) astNode()    {}
func (*CaseExpr) astNode()    {}
func (*InExpr) astNode()      {}

// NodeString renders an AST expression exactly as the analyzer does for
// display names and deduplication keys. The distributed planner mirrors the
// analyzer's aggregate rewrite and must produce identical output column
// names, so the rendering is exported rather than duplicated.
func NodeString(n Node) string { return astString(n) }

// ContainsAggregate reports whether an aggregate call appears anywhere in
// the expression (exported for the distributed planner's scatter analysis).
func ContainsAggregate(n Node) bool { return containsAggregate(n) }

// containsAggregate reports whether an aggregate call appears anywhere in
// the expression.
func containsAggregate(n Node) bool {
	switch e := n.(type) {
	case *FuncCall:
		return true
	case *BinaryExpr:
		return containsAggregate(e.L) || containsAggregate(e.R)
	case *UnaryExpr:
		return containsAggregate(e.E)
	case *BetweenExpr:
		return containsAggregate(e.E) || containsAggregate(e.Lo) || containsAggregate(e.Hi)
	case *LikeExpr:
		return containsAggregate(e.E)
	case *IsNullExpr:
		return containsAggregate(e.E)
	case *CaseExpr:
		for _, w := range e.Whens {
			if containsAggregate(w.Cond) || containsAggregate(w.Then) {
				return true
			}
		}
		return e.Else != nil && containsAggregate(e.Else)
	case *InExpr:
		if containsAggregate(e.E) {
			return true
		}
		for _, item := range e.List {
			if containsAggregate(item) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// astString renders an AST expression for display names.
func astString(n Node) string {
	switch e := n.(type) {
	case *Ident:
		if e.Table != "" {
			return e.Table + "." + e.Name
		}
		return e.Name
	case *NumberLit:
		return e.Text
	case *StringLit:
		return "'" + e.Val + "'"
	case *DateLit:
		return "date '" + e.Val + "'"
	case *IntervalLit:
		return "interval"
	case *NullLit:
		return "NULL"
	case *BoolLit:
		if e.Val {
			return "true"
		}
		return "false"
	case *BinaryExpr:
		return "(" + astString(e.L) + " " + e.Op + " " + astString(e.R) + ")"
	case *UnaryExpr:
		return e.Op + " " + astString(e.E)
	case *BetweenExpr:
		return astString(e.E) + " BETWEEN " + astString(e.Lo) + " AND " + astString(e.Hi)
	case *LikeExpr:
		return astString(e.E) + " LIKE '" + e.Pattern + "'"
	case *IsNullExpr:
		return astString(e.E) + " IS NULL"
	case *FuncCall:
		if e.Star {
			return "count(*)"
		}
		return strings.ToLower(e.Name) + "(" + astString(e.Arg) + ")"
	case *CaseExpr:
		var b strings.Builder
		b.WriteString("CASE")
		for _, w := range e.Whens {
			b.WriteString(" WHEN " + astString(w.Cond) + " THEN " + astString(w.Then))
		}
		if e.Else != nil {
			b.WriteString(" ELSE " + astString(e.Else))
		}
		b.WriteString(" END")
		return b.String()
	case *InExpr:
		parts := make([]string, len(e.List))
		for i, item := range e.List {
			parts[i] = astString(item)
		}
		op := " IN ("
		if e.Negate {
			op = " NOT IN ("
		}
		return astString(e.E) + op + strings.Join(parts, ", ") + ")"
	default:
		return "?"
	}
}
