package sql

import (
	"testing"

	"bufferdb/internal/storage"
)

// TestShapeKey: texts that differ only in bound literals of one class share
// a key; a different class, a pinned literal, an identifier or a keyword
// makes another key. Keyword case, whitespace and comments do not count.
func TestShapeKey(t *testing.T) {
	base := `SELECT n_name FROM nation WHERE n_nationkey = 5 AND n_comment <> 'x' AND n_regionkey < 2.5 ORDER BY n_name LIMIT 3`
	same := []string{
		`SELECT n_name FROM nation WHERE n_nationkey = 17 AND n_comment <> 'it''s' AND n_regionkey < 0.25 ORDER BY n_name LIMIT 3`,
		"select n_name\nfrom nation -- a comment\nwhere n_nationkey = 5 and n_comment <> '' and n_regionkey < .5 order by n_name limit 3",
	}
	other := []string{
		`SELECT n_name FROM nation WHERE n_nationkey = 5.0 AND n_comment <> 'x' AND n_regionkey < 2.5 ORDER BY n_name LIMIT 3`,
		`SELECT n_name FROM nation WHERE n_nationkey = '5' AND n_comment <> 'x' AND n_regionkey < 2.5 ORDER BY n_name LIMIT 3`,
		`SELECT n_name FROM nation WHERE n_nationkey = 5 AND n_comment <> 'x' AND n_regionkey < 2.5 ORDER BY n_name LIMIT 4`,
		`SELECT N_NAME FROM nation WHERE n_nationkey = 5 AND n_comment <> 'x' AND n_regionkey < 2.5 ORDER BY n_name LIMIT 3`,
		`SELECT n_name FROM nation WHERE n_nationkey = 5 OR n_comment <> 'x' AND n_regionkey < 2.5 ORDER BY n_name LIMIT 3`,
	}
	key := func(q string) string {
		s, err := Lex(q)
		if err != nil {
			t.Fatal(err)
		}
		return string(s.Key())
	}
	want := key(base)
	for _, q := range same {
		if key(q) != want {
			t.Errorf("another key for %s", q)
		}
	}
	for _, q := range other {
		if key(q) == want {
			t.Errorf("the same key for %s", q)
		}
	}
}

// TestShapeSlots: bound literals are numbered in text order and the AST
// carries their slots; literals in the select list, GROUP BY, ORDER BY,
// LIMIT and an INTERVAL quantity are pinned (slot 0) and stay in the key.
func TestShapeSlots(t *testing.T) {
	q := `SELECT l_quantity + 1, COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey AND o_totalprice > 2.5
		WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY AND l_comment LIKE 'a%' AND l_tax IN (3, 4)
		GROUP BY l_quantity + 1 ORDER BY 2 LIMIT 10`
	s, err := Lex(q)
	if err != nil {
		t.Fatal(err)
	}
	wantArgs := []string{"2.5", "1998-12-01", "a%", "3", "4"}
	if len(s.args) != len(wantArgs) {
		t.Fatalf("args %q, want %q", s.args, wantArgs)
	}
	for i, a := range wantArgs {
		if s.args[i] != a {
			t.Errorf("slot %d = %q, want %q", i+1, s.args[i], a)
		}
	}
	stmt, err := s.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if like := stmt.Where.(*BinaryExpr).L.(*BinaryExpr).R.(*LikeExpr); like.Slot != 3 {
		t.Errorf("LIKE pattern slot %d, want 3", like.Slot)
	}
	if lit := stmt.Items[0].Expr.(*BinaryExpr).R.(*NumberLit); lit.Slot != 0 {
		t.Errorf("select-list literal has slot %d, want pinned", lit.Slot)
	}
	v, err := s.Arg(2, storage.TypeDate)
	if err != nil || v.Kind != storage.TypeDate {
		t.Errorf("Arg(2, date) = %v, %v", v, err)
	}
	if _, err := s.Arg(3, storage.TypeInt64); err == nil {
		t.Error("Arg read 'a%' as an integer")
	}
}

// TestKeywordsAnyCase: keyword recognition is case-insensitive and yields
// the canonical spelling; near-keywords and long words stay identifiers.
func TestKeywordsAnyCase(t *testing.T) {
	toks, err := lex("select Select sElEcT selects distinctly _from")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct {
		kind tokenKind
		text string
	}{{tokKeyword, "SELECT"}, {tokKeyword, "SELECT"}, {tokKeyword, "SELECT"},
		{tokIdent, "selects"}, {tokIdent, "distinctly"}, {tokIdent, "_from"}} {
		if toks[i].kind != want.kind || toks[i].text != want.text {
			t.Errorf("token %d = %v %q, want %v %q", i, toks[i].kind, toks[i].text, want.kind, want.text)
		}
	}
}
