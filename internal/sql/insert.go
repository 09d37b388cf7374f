package sql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"bufferdb/internal/storage"
)

// InsertStmt is the parsed form of the supported INSERT subset:
//
//	INSERT INTO table VALUES (lit, …) [, (lit, …)]…
//
// Values are literals only (numbers, strings, DATE '…', TRUE/FALSE, NULL,
// unary minus) — INSERT exists to feed the persistent storage tier, not to
// evaluate expressions, and stays deliberately small.
type InsertStmt struct {
	Table string
	// Rows holds one literal list per VALUES tuple.
	Rows [][]Node
}

// IsInsert reports whether the statement's first token is the INSERT
// keyword, which is how the facade routes between the SELECT pipeline and
// the write path without parsing twice. It skips the same leading trivia
// the lexer does — whitespace and "--" line comments — and requires a token
// boundary after the keyword, so "-- note\nINSERT …" routes to the write
// path while an identifier like "inserted" does not.
func IsInsert(input string) bool {
	i, n := 0, len(input)
	for i < n {
		switch c := input[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		default:
			rest := input[i:]
			if len(rest) < 6 || !strings.EqualFold(rest[:6], "INSERT") {
				return false
			}
			if len(rest) > 6 {
				if r := rune(rest[6]); unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
					return false
				}
			}
			return true
		}
	}
	return false
}

// ParseInsert parses a single INSERT statement.
func ParseInsert(input string) (*InsertStmt, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseInsert()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, p.errorf("trailing input after statement")
	}
	return stmt, nil
}

// InsertTarget returns the table an INSERT statement writes to. ok is false
// when the statement does not parse as an INSERT — callers invalidating by
// table should then invalidate everything.
func InsertTarget(query string) (string, bool) {
	stmt, err := ParseInsert(query)
	if err != nil {
		return "", false
	}
	return stmt.Table, true
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: name}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Node
		for {
			lit, err := p.parseInsertLiteral()
			if err != nil {
				return nil, err
			}
			row = append(row, lit)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return stmt, nil
}

// parseInsertLiteral accepts exactly the literal forms VALUES supports.
func (p *parser) parseInsertLiteral() (Node, error) {
	if p.acceptSymbol("-") {
		inner, err := p.parseInsertLiteral()
		if err != nil {
			return nil, err
		}
		if _, ok := inner.(*NumberLit); !ok {
			return nil, p.errorf("unary minus needs a numeric literal")
		}
		return &UnaryExpr{Op: "-", E: inner}, nil
	}
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.pos++
		return &NumberLit{Text: t.text, IsInt: !strings.Contains(t.text, ".")}, nil
	case t.kind == tokString:
		p.pos++
		return &StringLit{Val: t.text}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.pos++
		return &NullLit{}, nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.pos++
		return &BoolLit{Val: true}, nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.pos++
		return &BoolLit{Val: false}, nil
	case t.kind == tokKeyword && t.text == "DATE":
		p.pos++
		s := p.cur()
		if s.kind != tokString {
			return nil, p.errorf("DATE needs a 'yyyy-mm-dd' literal")
		}
		p.pos++
		return &DateLit{Val: s.text}, nil
	}
	return nil, p.errorf("expected a literal value, found %q", t.text)
}

// AnalyzeInsert resolves an InsertStmt against the catalog: the table must
// exist, every tuple must match the schema arity, and each literal must
// coerce to its column's type (integers widen to DOUBLE, strings parse into
// DATE columns, NULL fits anywhere). It returns the canonical table name
// and the typed rows ready for the storage tier.
func AnalyzeInsert(cat *storage.Catalog, stmt *InsertStmt) (string, []storage.Row, error) {
	t, err := cat.Table(stmt.Table)
	if err != nil {
		return "", nil, err
	}
	schema := t.Schema()
	rows := make([]storage.Row, 0, len(stmt.Rows))
	for ri, lits := range stmt.Rows {
		if len(lits) != len(schema) {
			return "", nil, fmt.Errorf("sql: INSERT INTO %s: tuple %d has %d values, table has %d columns",
				t.Name(), ri+1, len(lits), len(schema))
		}
		row := make(storage.Row, len(lits))
		for ci, lit := range lits {
			v, err := literalValue(lit)
			if err != nil {
				return "", nil, fmt.Errorf("sql: INSERT INTO %s: tuple %d column %s: %w",
					t.Name(), ri+1, schema[ci].Name, err)
			}
			v, err = coerceTo(v, schema[ci].Type)
			if err != nil {
				return "", nil, fmt.Errorf("sql: INSERT INTO %s: tuple %d column %s: %w",
					t.Name(), ri+1, schema[ci].Name, err)
			}
			row[ci] = v
		}
		rows = append(rows, row)
	}
	return t.Name(), rows, nil
}

// literalValue evaluates one VALUES literal to a storage value.
func literalValue(n Node) (storage.Value, error) {
	switch e := n.(type) {
	case *NumberLit:
		if e.IsInt {
			v, err := strconv.ParseInt(e.Text, 10, 64)
			if err != nil {
				return storage.Null, fmt.Errorf("bad integer literal %q", e.Text)
			}
			return storage.NewInt(v), nil
		}
		v, err := strconv.ParseFloat(e.Text, 64)
		if err != nil {
			return storage.Null, fmt.Errorf("bad numeric literal %q", e.Text)
		}
		return storage.NewFloat(v), nil
	case *StringLit:
		return storage.NewString(e.Val), nil
	case *DateLit:
		return storage.ParseDate(e.Val)
	case *NullLit:
		return storage.Null, nil
	case *BoolLit:
		return storage.NewBool(e.Val), nil
	case *UnaryExpr:
		v, err := literalValue(e.E)
		if err != nil {
			return storage.Null, err
		}
		switch v.Kind {
		case storage.TypeInt64:
			return storage.NewInt(-v.I), nil
		case storage.TypeFloat64:
			return storage.NewFloat(-v.F), nil
		}
		return storage.Null, fmt.Errorf("unary minus on non-numeric literal")
	}
	return storage.Null, fmt.Errorf("unsupported VALUES expression")
}

// coerceTo converts v to the column type t where the conversion is lossless
// and conventional; anything else is a type error.
func coerceTo(v storage.Value, t storage.Type) (storage.Value, error) {
	if v.IsNull() || v.Kind == t {
		return v, nil
	}
	switch {
	case t == storage.TypeFloat64 && v.Kind == storage.TypeInt64:
		return storage.NewFloat(float64(v.I)), nil
	case t == storage.TypeDate && v.Kind == storage.TypeString:
		d, err := storage.ParseDate(v.S)
		if err != nil {
			return storage.Null, err
		}
		return d, nil
	}
	return storage.Null, fmt.Errorf("cannot store %v into %v column", v.Kind, t)
}
