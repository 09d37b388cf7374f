package sql

import (
	"encoding/binary"
	"strings"

	"bufferdb/internal/storage"
)

// Shape is a lexed SELECT statement and its plan-cache identity. Key is the
// token stream with each bound literal replaced by a placeholder of its
// lexical class (integer, decimal or string), each occurrence of a bound
// output alias by its name's slot (see nameSlots), and every other token
// kept as written (see literalSlots). Two texts with one Key differ at most
// in the values of their bound literals and the spellings of their bound
// aliases: they parse to one tree and analyze to one plan up to those values,
// the estimates they give and the output column names, so a plan built for
// one serves the other once its parameters are re-bound with the other's
// Arg and its output columns renamed with the other's Names.
type Shape struct {
	toks    []token
	key     []byte
	args    []string // args[i] is the text of bound literal slot i+1
	aliases []alias  // the bound aliases of the select list, in text order
}

// alias is one bound output alias: the select-list item it names and its
// spelling in this text.
type alias struct {
	item int
	text string
}

// Key bytes. A verbatim token is its kind, its text's length and its text;
// a bound one is its kind with boundToken set, then its literal class or
// its name slot. Kinds are below boundToken, so no verbatim token reads as
// a bound one.
const (
	boundToken = 0x80

	classInt     = 'i'
	classDecimal = 'd'
	classString  = 's'
)

// Lex lexes a statement into its Shape.
func Lex(query string) (*Shape, error) {
	toks, err := lex(query)
	if err != nil {
		return nil, err
	}
	size, lits, names := 0, 0, 0
	for _, t := range toks {
		size += len(t.text) + 2
		switch {
		case t.slot == 0:
		case t.kind == tokIdent:
			names++
		default:
			lits++
		}
	}
	s := &Shape{toks: toks, key: make([]byte, 0, size), args: make([]string, 0, lits)}
	if names > 0 {
		s.aliases = make([]alias, 0, names)
	}
	// item counts the select list's top-level commas, until FROM.
	item, depth, selectList := 0, 0, false
	for i, t := range toks {
		switch {
		case t.kind == tokKeyword && (t.text == "SELECT" || t.text == "FROM"):
			selectList = t.text == "SELECT"
		case selectList && t.kind == tokSymbol:
			switch t.text {
			case "(":
				depth++
			case ")":
				depth--
			case ",":
				if depth == 0 {
					item++
				}
			}
		}
		if t.slot == 0 {
			s.key = append(s.key, byte(t.kind))
			// The length prefix keeps adjacent texts from running together.
			s.key = binary.AppendUvarint(s.key, uint64(len(t.text)))
			s.key = append(s.key, t.text...)
			continue
		}
		s.key = append(s.key, byte(t.kind)|boundToken)
		if t.kind == tokIdent {
			s.key = binary.AppendUvarint(s.key, uint64(t.slot))
			if isKeyword(toks[i-1], "AS") {
				s.aliases = append(s.aliases, alias{item: item, text: t.text})
			}
			continue
		}
		class := byte(classString)
		if t.kind == tokNumber {
			class = classInt
			if strings.IndexByte(t.text, '.') >= 0 {
				class = classDecimal
			}
		}
		s.key = append(s.key, class)
		s.args = append(s.args, t.text)
	}
	return s, nil
}

// Key is the statement's plan-cache key. It is valid while s is.
func (s *Shape) Key() []byte { return s.key }

// Parse parses the lexed statement, exactly as Parse parses its text.
func (s *Shape) Parse() (*SelectStmt, error) { return parseTokens(s.toks) }

// Arg reads this statement's bound literal param as a value of kind,
// through the conversion the analyzer builds literals with. It is the
// expr.Arg that binds a plan of this shape to this text.
func (s *Shape) Arg(param int, kind storage.Type) (storage.Value, error) {
	return readLiteral(s.args[param-1], kind)
}

// Names returns this statement's output column names given cols, the
// output columns of a plan of its shape: cols' names with each bound
// alias's column spelled as in this text. It returns nil when every
// spelling is already cols', so a plan whose names fit needs no renaming.
func (s *Shape) Names(cols storage.Schema) []string {
	var names []string
	for _, a := range s.aliases {
		if cols[a.item].Name == a.text {
			continue
		}
		if names == nil {
			names = make([]string, len(cols))
			for i, c := range cols {
				names[i] = c.Name
			}
		}
		names[a.item] = a.text
	}
	return names
}
