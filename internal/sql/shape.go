package sql

import (
	"encoding/binary"
	"strings"

	"bufferdb/internal/storage"
)

// Shape is a lexed SELECT statement and its plan-cache identity. Key is the
// token stream with each bound literal replaced by a placeholder of its
// lexical class (integer, decimal or string) and each pinned literal kept
// as written (see literalSlots). Two texts with one Key differ at most in
// the values of their bound literals: they parse to one tree and analyze to
// one plan up to those values and the estimates they give, so a plan built
// for one serves the other once its parameters are re-bound with the
// other's Arg.
type Shape struct {
	toks []token
	key  []byte
	args []string // args[i] is the text of bound literal slot i+1
}

// Literal classes in a Shape key.
const (
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
	size, bound := 0, 0
	for _, t := range toks {
		size += len(t.text) + 2
		if t.slot > 0 {
			bound++
		}
	}
	s := &Shape{toks: toks, key: make([]byte, 0, size), args: make([]string, 0, bound)}
	for _, t := range toks {
		s.key = append(s.key, byte(t.kind))
		if t.slot == 0 {
			// The length prefix keeps adjacent texts from running together.
			s.key = binary.AppendUvarint(s.key, uint64(len(t.text)))
			s.key = append(s.key, t.text...)
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
