package sql

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
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

// dashboardText is the benchmark of record's served_short dashboard: four
// group columns by four ship-date years, every output column aliased, the
// aliases suffixed to make texts unique.
func dashboardText(i int, suffix string) string {
	groups := []string{"l_returnflag", "l_linestatus", "l_shipmode", "l_shipinstruct"}
	g, y := groups[i%4], 1993+i/4
	return fmt.Sprintf(
		"SELECT %s AS grp%s, SUM(l_extendedprice * (1 - l_discount)) AS revenue%s, COUNT(*) AS n%s FROM lineitem"+
			" WHERE l_shipdate >= DATE '%d-01-01' AND l_shipdate < DATE '%d-01-01' GROUP BY %s ORDER BY 1",
		g, suffix, suffix, suffix, y, y+1, g)
}

// aliasKeyCases are pairs of texts and whether they must share a shape
// key: output aliases are bound names only where every other occurrence of
// their case-folded text is a whole ORDER BY item.
var aliasKeyCases = []struct {
	a, b string
	same bool
}{
	{dashboardText(5, ""), dashboardText(5, "_913"), true},
	{dashboardText(5, "_1"), dashboardText(9, "_2"), true}, // the year is a bound literal
	{dashboardText(5, ""), dashboardText(6, ""), false},    // another group column
	{`SELECT n_name AS a, n_regionkey AS b FROM nation ORDER BY a`,
		`SELECT n_name AS x, n_regionkey AS y FROM nation ORDER BY x`, true},
	{`SELECT n_name AS a, n_regionkey AS b FROM nation ORDER BY a`,
		`SELECT n_name AS b, n_regionkey AS a FROM nation ORDER BY a`, false},
	{`SELECT n_name AS a, n_regionkey AS b FROM nation ORDER BY b DESC, a`,
		`SELECT n_name AS P, n_regionkey AS q FROM nation ORDER BY Q DESC, p`, true},
	{`SELECT n_name AS a, n_regionkey AS A FROM nation ORDER BY a`,
		`SELECT n_name AS z, n_regionkey AS Z FROM nation ORDER BY Z`, true},
	{`SELECT n_name AS a, n_regionkey AS a FROM nation`,
		`SELECT n_name AS a, n_regionkey AS b FROM nation`, false},
	{`SELECT n_regionkey AS n_name, n_name FROM nation ORDER BY n_name`,
		`SELECT n_regionkey AS x, n_name FROM nation ORDER BY x`, false},
	{`SELECT n_regionkey AS k, n_name FROM nation WHERE k > 1`,
		`SELECT n_regionkey AS j, n_name FROM nation WHERE j > 1`, false},
	{`SELECT n_regionkey AS k, COUNT(*) AS c FROM nation GROUP BY k`,
		`SELECT n_regionkey AS j, COUNT(*) AS c FROM nation GROUP BY j`, false},
	{`SELECT n.n_name AS n FROM nation n`, `SELECT n.n_name AS m FROM nation n`, false},
	{`SELECT n_name AS t FROM nation AS t`, `SELECT n_name AS u FROM nation AS t`, false},
	{`SELECT n_name a FROM nation`, `SELECT n_name b FROM nation`, false},
	{`SELECT n_regionkey AS k FROM nation ORDER BY k + 1`,
		`SELECT n_regionkey AS j FROM nation ORDER BY j + 1`, false},
	{`SELECT n_regionkey AS k FROM nation ORDER BY n_name IN ('x', k, 'y')`,
		`SELECT n_regionkey AS j FROM nation ORDER BY n_name IN ('x', j, 'y')`, false},
	{`SELECT n_regionkey AS k FROM nation ORDER BY k LIMIT 3`,
		`SELECT n_regionkey AS j FROM nation ORDER BY j LIMIT 3`, true},
}

// TestShapeAliasKey holds the alias rule to its cases, and checks that
// Names spells each bound alias's column as the text does and returns nil
// when the spellings already fit.
func TestShapeAliasKey(t *testing.T) {
	for i, c := range aliasKeyCases {
		a, err := Lex(c.a)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Lex(c.b)
		if err != nil {
			t.Fatal(err)
		}
		if same := string(a.Key()) == string(b.Key()); same != c.same {
			t.Errorf("case %d: same key %v, want %v\n%s\n%s", i, same, c.same, c.a, c.b)
			continue
		}
		if !c.same {
			continue
		}
		sa, sb := mustParse(t, c.a), mustParse(t, c.b)
		if got := a.Names(outputColumns(sa)); got != nil {
			t.Errorf("case %d: Names of a text's own columns = %q, want nil", i, got)
		}
		got := b.Names(outputColumns(sa))
		if got == nil {
			got = outputNames(sa)
		}
		if want := outputNames(sb); !slices.Equal(got, want) {
			t.Errorf("case %d: Names = %q, want %q", i, got, want)
		}
	}
}

func mustParse(t *testing.T, q string) *SelectStmt {
	t.Helper()
	s, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// outputNames are a statement's output column names as the analyzer gives
// them: an item's alias, else its rendering.
func outputNames(s *SelectStmt) []string {
	var names []string
	for _, it := range s.Items {
		switch {
		case it.Star:
			names = append(names, "*")
		case it.Alias != "":
			names = append(names, it.Alias)
		default:
			names = append(names, astString(it.Expr))
		}
	}
	return names
}

func outputColumns(s *SelectStmt) storage.Schema {
	var cols storage.Schema
	for _, n := range outputNames(s) {
		cols = append(cols, storage.Column{Name: n})
	}
	return cols
}

// shapeSeeds are FuzzShapeKey's texts: the served texts and the alias
// cases above.
func shapeSeeds() []string {
	seeds := []string{
		dashboardText(0, ""), dashboardText(7, "_42"), dashboardText(15, "_1234567"),
		`SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_base_price,` +
			` SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,` +
			` SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,` +
			` AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, AVG(l_discount) AS avg_disc,` +
			` COUNT(*) AS count_order FROM lineitem WHERE l_shipdate <= DATE '1998-08-15' AND l_orderkey <> -17` +
			` GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`,
		`SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate, o_shippriority` +
			` FROM customer, orders, lineitem WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey` +
			` AND l_orderkey = o_orderkey AND o_orderdate < DATE '1995-03-15' AND l_shipdate > DATE '1995-03-15'` +
			` AND c_custkey <> -17 AND o_orderkey <> -17 AND l_orderkey <> -17` +
			` GROUP BY l_orderkey, o_orderdate, o_shippriority ORDER BY revenue DESC, o_orderdate LIMIT 10`,
		`SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey AND n_nationkey = 7` +
			` AND n_nationkey <> -7 AND r_regionkey <> -7`,
	}
	for _, c := range aliasKeyCases {
		seeds = append(seeds, c.a, c.b)
	}
	return seeds
}

// FuzzShapeKey: two texts with one shape key parse to trees equal up to
// the values of their bound literals and the spellings of their bound
// aliases, and Shape.Names turns the one's output names into the other's.
// The second text is the first with identifiers and literals swapped at
// random for others — names and literals of the text, case changes, fresh
// ones — so equal keys are common and the swaps that must change the key
// are tried too.
func FuzzShapeKey(f *testing.F) {
	for i, s := range shapeSeeds() {
		f.Add(s, uint64(i))
	}
	f.Fuzz(func(t *testing.T, text string, seed uint64) {
		a, err := Lex(text)
		if err != nil {
			return
		}
		variant := mutateTokens(text, a.toks, rand.New(rand.NewSource(int64(seed))))
		b, err := Lex(variant)
		if err != nil || string(a.Key()) != string(b.Key()) {
			return
		}
		sa, errA := a.Parse()
		sb, errB := b.Parse()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("one key, but one text parses and the other does not (%v, %v):\n%q\n%q", errA, errB, text, variant)
		}
		if errA != nil {
			return
		}
		wantNames := outputNames(sb)
		normalize(sa, a)
		normalize(sb, b)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("one key, different trees:\n%q\n%q", text, variant)
		}
		if slices.Contains(wantNames, "*") {
			return
		}
		names := b.Names(outputColumns(mustParse(t, text)))
		if names == nil {
			names = outputNames(mustParse(t, text))
		}
		if !slices.Equal(names, wantNames) {
			t.Fatalf("Names = %q, want %q:\n%q\n%q", names, wantNames, text, variant)
		}
	})
}

// mutateTokens returns text with some identifier and literal tokens
// replaced: identifiers by another identifier of the text, a case change
// or a fresh name; numbers and strings by others of their kind.
func mutateTokens(text string, toks []token, rng *rand.Rand) string {
	var idents []string
	for _, tk := range toks {
		if tk.kind == tokIdent {
			idents = append(idents, tk.text)
		}
	}
	var b strings.Builder
	last := 0
	for _, tk := range toks {
		if tk.kind != tokIdent && tk.kind != tokNumber && tk.kind != tokString || rng.Intn(3) == 0 {
			continue
		}
		end := tk.pos + len(tk.text)
		var with string
		switch tk.kind {
		case tokIdent:
			switch rng.Intn(4) {
			case 0:
				with = idents[rng.Intn(len(idents))]
			case 1:
				with = strings.ToUpper(tk.text)
			case 2:
				with = tk.text + "_" + strconv.Itoa(rng.Intn(3))
			default:
				with = []string{"a", "A", "b", "n_name", "x"}[rng.Intn(5)]
			}
		case tokNumber:
			with = []string{"1", "2", "0.5", "17"}[rng.Intn(4)]
		case tokString:
			end = tk.pos + 1
			for end < len(text) && (text[end] != '\'' || end+1 < len(text) && text[end+1] == '\'') {
				if text[end] == '\'' {
					end++
				}
				end++
			}
			end++
			with = []string{"'x'", "'1995-01-01'", "'it''s'"}[rng.Intn(3)]
		}
		b.WriteString(text[last:tk.pos])
		b.WriteString(with)
		last = end
	}
	b.WriteString(text[last:])
	return b.String()
}

// normalize blanks what shape binds in s, its parsed statement: bound
// literal values, the bound aliases, and each ORDER BY item resolving to a
// bound alias's column (the first item whose output name folds to its
// name, as the analyzer resolves it), which becomes that item's index.
func normalize(s *SelectStmt, shape *Shape) {
	bound := map[int]bool{}
	for _, a := range shape.aliases {
		bound[a.item] = true
	}
	names := outputNames(s)
	for i := range s.OrderBy {
		id, ok := s.OrderBy[i].Expr.(*Ident)
		if !ok || id.Table != "" {
			continue
		}
		for j, n := range names {
			if strings.EqualFold(n, id.Name) {
				if bound[j] {
					id.Name = fmt.Sprintf("#%d", j)
				}
				break
			}
		}
	}
	for i := range s.Items {
		if bound[i] {
			s.Items[i].Alias = ""
		}
	}
	var walk func(n Node)
	walk = func(n Node) {
		switch e := n.(type) {
		case *NumberLit:
			if e.Slot > 0 {
				e.Text = ""
			}
		case *StringLit:
			if e.Slot > 0 {
				e.Val = ""
			}
		case *DateLit:
			if e.Slot > 0 {
				e.Val = ""
			}
		case *LikeExpr:
			walk(e.E)
			if e.Slot > 0 {
				e.Pattern = ""
			}
		case *BinaryExpr:
			walk(e.L)
			walk(e.R)
		case *UnaryExpr:
			walk(e.E)
		case *BetweenExpr:
			walk(e.E)
			walk(e.Lo)
			walk(e.Hi)
		case *InExpr:
			walk(e.E)
			for _, x := range e.List {
				walk(x)
			}
		case *IsNullExpr:
			walk(e.E)
		case *FuncCall:
			if e.Arg != nil {
				walk(e.Arg)
			}
		case *CaseExpr:
			for _, w := range e.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			if e.Else != nil {
				walk(e.Else)
			}
		}
	}
	for _, it := range s.Items {
		if !it.Star {
			walk(it.Expr)
		}
	}
	for _, j := range s.Joins {
		walk(j.On)
	}
	if s.Where != nil {
		walk(s.Where)
	}
	for _, g := range s.GroupBy {
		walk(g)
	}
	for _, o := range s.OrderBy {
		walk(o.Expr)
	}
}

// TestFoldName: two identifiers fold alike exactly when strings.EqualFold
// holds, across ASCII case, the Kelvin sign and long s, which fold with
// ASCII letters, other scripts and bytes that are not UTF-8.
func TestFoldName(t *testing.T) {
	names := []string{"rev", "REV", "Rev", "k", "K", "\u212a", "s", "S", "\u017f", "l_\u017fhip", "L_SHIP",
		"\u00e9t\u00e9", "\u00c9T\u00c9", "\u03c3", "\u03a3", "\u03c2", "\xc3", "\xe9", "\ufffd", "a\xffb", "a\ufffdb", "ab"}
	for _, a := range names {
		for _, b := range names {
			if got, want := foldName(a) == foldName(b), strings.EqualFold(a, b); got != want {
				t.Errorf("foldName(%q) == foldName(%q) is %v, EqualFold %v", a, b, got, want)
			}
		}
	}
}
