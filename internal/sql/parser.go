package sql

import (
	"fmt"
	"strconv"
)

// Parse parses a single SELECT statement.
func Parse(input string) (*SelectStmt, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	return parseTokens(toks, (*parser).parseSelect)
}

// parseTokens parses a whole lexed statement with parse, the statement's
// own rule: after it only a semicolon may follow.
func parseTokens[S any](toks []token, parse func(*parser) (*S, error)) (*S, error) {
	p := &parser{toks: toks}
	stmt, err := parse(p)
	if err != nil {
		return nil, err
	}
	// Optional trailing semicolon.
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, p.errorf("trailing input after statement")
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (near offset %d)", fmt.Sprintf(format, args...), p.cur().pos)
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.cur(); t.kind == tokKeyword && t.text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %q", kw, p.cur().text)
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if t := p.cur(); t.kind == tokSymbol && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errorf("expected %q, found %q", s, p.cur().text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if t := p.cur(); t.kind == tokIdent {
		p.pos++
		return t.text, nil
	}
	return "", p.errorf("expected identifier, found %q", p.cur().text)
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}

	// Target list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, ref)
		if !p.acceptSymbol(",") {
			break
		}
	}
	for p.acceptKeyword("INNER") || p.cur().text == "JOIN" {
		if err := p.expectKeyword("JOIN"); err != nil {
			return nil, err
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, JoinClause{Table: ref, On: on})
	}

	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		return nil, p.errorf("HAVING is not supported")
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.cur()
		if t.kind != tokNumber {
			return nil, p.errorf("expected LIMIT count")
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errorf("bad LIMIT %q", t.text)
		}
		p.pos++
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		name, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = name
	} else if p.cur().kind == tokIdent {
		// Bare alias.
		item.Alias = p.cur().text
		p.pos++
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.cur().kind == tokIdent {
		ref.Alias = p.cur().text
		p.pos++
	}
	return ref, nil
}

// Expression grammar, lowest precedence first:
//
//	expr     := and (OR and)*
//	and      := not (AND not)*
//	not      := NOT not | predicate
//	predicate:= additive ((=|<>|<|<=|>|>=) additive
//	           | [NOT] BETWEEN additive AND additive
//	           | [NOT] LIKE 'pattern'
//	           | IS [NOT] NULL)?
//	additive := multiplicative ((+|-) multiplicative)*
//	multiplicative := unary ((*|/) unary)*
//	unary    := - unary | primary
//	primary  := literal | ident[.ident] | agg(...) | ( expr )
func (p *parser) parseExpr() (Node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Node, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Node, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Node, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	negate := false
	if p.cur().kind == tokKeyword && p.cur().text == "NOT" {
		// lookahead: NOT BETWEEN / NOT LIKE / NOT IN
		next := p.toks[p.pos+1]
		if next.kind == tokKeyword && (next.text == "BETWEEN" || next.text == "LIKE" || next.text == "IN") {
			p.pos++
			negate = true
		}
	}
	switch {
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Negate: negate}, nil

	case p.acceptKeyword("LIKE"):
		t := p.cur()
		if t.kind != tokString {
			return nil, p.errorf("LIKE needs a string pattern")
		}
		p.pos++
		return &LikeExpr{E: l, Pattern: t.text, Negate: negate, Slot: int(t.slot)}, nil

	case p.acceptKeyword("IN"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []Node
		for {
			item, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			list = append(list, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, List: list, Negate: negate}, nil

	case p.acceptKeyword("IS"):
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Negate: neg}, nil
	}
	for _, op := range []string{"<=", ">=", "<>", "=", "<", ">"} {
		if p.acceptSymbol(op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Node, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "+", L: l, R: r}
		case p.acceptSymbol("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "*", L: l, R: r}
		case p.acceptSymbol("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Node, error) {
	if p.acceptSymbol("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Node, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		isInt := true
		for _, c := range t.text {
			if c == '.' {
				isInt = false
			}
		}
		return &NumberLit{Text: t.text, IsInt: isInt, Slot: int(t.slot)}, nil

	case tokString:
		p.pos++
		return &StringLit{Val: t.text, Slot: int(t.slot)}, nil

	case tokKeyword:
		switch t.text {
		case "NULL":
			p.pos++
			return &NullLit{}, nil
		case "TRUE":
			p.pos++
			return &BoolLit{Val: true}, nil
		case "FALSE":
			p.pos++
			return &BoolLit{Val: false}, nil
		case "DATE":
			p.pos++
			s := p.cur()
			if s.kind != tokString {
				return nil, p.errorf("DATE needs a 'yyyy-mm-dd' literal")
			}
			p.pos++
			return &DateLit{Val: s.text, Slot: int(s.slot)}, nil
		case "INTERVAL":
			p.pos++
			s := p.cur()
			if s.kind != tokString {
				return nil, p.errorf("INTERVAL needs a quoted count")
			}
			n, err := strconv.ParseInt(s.text, 10, 64)
			if err != nil {
				return nil, p.errorf("bad INTERVAL count %q", s.text)
			}
			p.pos++
			unitDays := int64(0)
			switch {
			case p.acceptKeyword("DAY"):
				unitDays = 1
			case p.acceptKeyword("MONTH"):
				unitDays = 30 // calendar-approximate, documented in DESIGN.md
			case p.acceptKeyword("YEAR"):
				unitDays = 365
			default:
				return nil, p.errorf("INTERVAL unit must be DAY, MONTH or YEAR")
			}
			return &IntervalLit{Days: n * unitDays}, nil
		case "CASE":
			p.pos++
			var whens []WhenClause
			for p.acceptKeyword("WHEN") {
				cond, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectKeyword("THEN"); err != nil {
					return nil, err
				}
				then, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				whens = append(whens, WhenClause{Cond: cond, Then: then})
			}
			if len(whens) == 0 {
				return nil, p.errorf("CASE needs at least one WHEN arm")
			}
			var elseExpr Node
			if p.acceptKeyword("ELSE") {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				elseExpr = e
			}
			if err := p.expectKeyword("END"); err != nil {
				return nil, err
			}
			return &CaseExpr{Whens: whens, Else: elseExpr}, nil

		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.pos++
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			if t.text == "COUNT" && p.acceptSymbol("*") {
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return &FuncCall{Name: "COUNT", Star: true}, nil
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &FuncCall{Name: t.text, Arg: arg}, nil
		default:
			return nil, p.errorf("unexpected keyword %s", t.text)
		}

	case tokIdent:
		p.pos++
		if p.acceptSymbol(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &Ident{Table: t.text, Name: col}, nil
		}
		return &Ident{Name: t.text}, nil

	case tokSymbol:
		if t.text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q", t.text)
}
