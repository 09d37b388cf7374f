package bufferdb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bufferdb/internal/bench"
	"bufferdb/internal/plan"
	"bufferdb/internal/sql"
)

// servedShapes are the statement shapes of the benchmark of record's
// workloads (benchmark/workload.go), one text each.
var servedShapes = []string{
	adhocLookup(7),
	`SELECT l_shipmode AS grp, SUM(l_extendedprice * (1 - l_discount)) AS revenue, COUNT(*) AS n FROM lineitem` +
		` WHERE l_shipdate >= DATE '1995-01-01' AND l_shipdate < DATE '1996-01-01' GROUP BY l_shipmode ORDER BY 1`,
	`SELECT SUM(l_extendedprice * l_discount) AS revenue, COUNT(*) AS n FROM lineitem` +
		` WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'` +
		` AND l_discount BETWEEN 0.06 - 0.01 AND 0.06 + 0.01 AND l_quantity < 24 AND l_orderkey <> -17`,
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
	`SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice, l_shipdate, l_shipmode FROM lineitem` +
		` WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1994-03-01' AND l_orderkey <> -17`,
	`SELECT c_mktsegment, COUNT(*) AS n, AVG(c_acctbal) AS bal FROM customer WHERE c_custkey <> -17` +
		` GROUP BY c_mktsegment ORDER BY c_mktsegment`,
	`SELECT p_brand, COUNT(*) AS n, AVG(p_retailprice) AS price FROM part WHERE p_partkey <> -17` +
		` GROUP BY p_brand ORDER BY p_brand`,
}

// extraShapes cover the bound-literal spellings the workloads do not: LIKE
// patterns, IN lists, CASE, IS NULL, strings coerced to dates, a nest-loop
// residual, decimals in arithmetic and a pinned INTERVAL.
var extraShapes = []string{
	`SELECT COUNT(*) FROM part WHERE p_type LIKE 'PROMO%' AND p_size IN (1, 5, 9)`,
	`SELECT COUNT(*) FROM part WHERE p_type NOT LIKE '%BRASS' AND p_size NOT IN (3, 7)`,
	`SELECT COUNT(*) FROM lineitem WHERE CASE WHEN l_quantity > 20 THEN l_discount ELSE 0.01 END > 0.05`,
	`SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= '1995-06-17' AND l_comment IS NOT NULL`,
	`SELECT COUNT(*) FROM lineitem WHERE l_extendedprice * (1 - l_discount) > 1000.5 AND l_tax < 0.04`,
	`SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY AND l_quantity > 10`,
	`SELECT n_name FROM nation JOIN region ON n_regionkey = r_regionkey AND r_name = 'ASIA' WHERE n_nationkey > 3`,
	`SELECT l_orderkey FROM lineitem WHERE l_quantity >= 49 AND l_quantity <= 50 AND -l_discount < -0.09`,
}

// aliasShapes cover the output-alias spellings the workloads do not: ORDER
// BY an alias, one alias twice in two letter cases, an alias equal to an
// unaliased column (which keeps it verbatim), and aliases beside a table
// alias.
var aliasShapes = []string{
	`SELECT n_name AS nm, n_regionkey AS rk FROM nation WHERE n_nationkey > 3 ORDER BY rk DESC, nm`,
	`SELECT n_name AS x, n_regionkey AS X FROM nation WHERE n_nationkey < 20 ORDER BY x`,
	`SELECT n_regionkey AS n_name, n_name FROM nation WHERE n_nationkey < 20 ORDER BY n_name`,
	`SELECT l_returnflag AS flag, COUNT(*) AS cnt, AVG(l_tax) AS tax FROM lineitem WHERE l_quantity < 10` +
		` GROUP BY l_returnflag ORDER BY cnt DESC, flag`,
	`SELECT n.n_name AS name, r.r_name AS region FROM nation n JOIN region r ON n.n_regionkey = r.r_regionkey` +
		` WHERE n.n_nationkey > 5 ORDER BY region, name`,
}

// planCacheTexts is every SELECT text the differential test varies: the
// served shapes, the reproduction's queries and the equivalence suites'.
func planCacheTexts() []string {
	texts := append([]string{}, servedShapes...)
	texts = append(texts, extraShapes...)
	texts = append(texts, aliasShapes...)
	texts = append(texts, bench.Query1, bench.Query2, bench.Query3, bench.TPCHQ1, bench.TPCHQ3,
		bench.TPCHQ5, bench.TPCHQ6, bench.TPCHQ10, bench.TPCHQ12, bench.TPCHQ14)
	for _, q := range pagedScanQueries {
		texts = append(texts, q.query)
	}
	for _, q := range blockBenchQueries {
		texts = append(texts, q.sql)
	}
	texts = append(texts, reuseQueries...)
	return append(texts, concurrentQueries...)
}

// literalSpan is one number or string literal of a text.
type literalSpan struct {
	start, end int
	str        bool
}

// literalSpans finds a text's literals the way the lexer does: identifiers
// (which may hold digits) are skipped whole, strings may double a quote.
func literalSpans(text string) []literalSpan {
	var out []literalSpan
	isDigit := func(c byte) bool { return c >= '0' && c <= '9' }
	isWord := func(c byte) bool { return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || isDigit(c) }
	for i := 0; i < len(text); {
		c := text[i]
		switch {
		case c == '\'':
			j := i + 1
			for j < len(text) && !(text[j] == '\'' && (j+1 >= len(text) || text[j+1] != '\'')) {
				if text[j] == '\'' {
					j++
				}
				j++
			}
			out = append(out, literalSpan{i, j + 1, true})
			i = j + 1
		case isDigit(c) || c == '.' && i+1 < len(text) && isDigit(text[i+1]):
			j := i
			for j < len(text) && (isDigit(text[j]) || text[j] == '.') {
				j++
			}
			out = append(out, literalSpan{i, j, false})
			i = j
		case isWord(c):
			for i < len(text) && isWord(text[i]) {
				i++
			}
		default:
			i++
		}
	}
	return out
}

// stringPool holds replacement strings: TPC-H values of several columns,
// so a drawn string sometimes matches rows and sometimes none.
var stringPool = []string{"BUILDING", "AUTOMOBILE", "MACHINERY", "MAIL", "AIR", "RAIL", "ASIA", "EUROPE",
	"PROMO%", "%BRASS", "STANDARD%", "%", "N", "R", "O's"}

// drawLiteral returns a new literal of the same lexical class as lit:
// an integer for an integer, a decimal for a decimal, a string for a
// string — a date (now and then an invalid one) where the string was a date.
func drawLiteral(rng *rand.Rand, lit string, str bool) string {
	if str {
		body := strings.ReplaceAll(lit[1:len(lit)-1], "''", "'")
		var s string
		switch {
		case len(body) == 10 && body[4] == '-' && body[7] == '-':
			s = fmt.Sprintf("%d-%02d-%02d", 1992+rng.Intn(7), 1+rng.Intn(12), 1+rng.Intn(28))
			if rng.Intn(10) == 0 {
				s = "1995-13-45"
			}
		case rng.Intn(4) == 0:
			s = body
		default:
			s = stringPool[rng.Intn(len(stringPool))]
		}
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	if strings.Contains(lit, ".") {
		f, _ := strconv.ParseFloat(lit, 64)
		return strconv.FormatFloat(f*(0.5+rng.Float64()), 'f', 2, 64)
	}
	n, _ := strconv.ParseInt(lit, 10, 64)
	return strconv.FormatInt(rng.Int63n(2*n+10), 10)
}

// substitute replaces the literals at the given span indexes.
func substitute(text string, spans []literalSpan, pick []int, with []string) string {
	var b strings.Builder
	last := 0
	for k, i := range pick {
		b.WriteString(text[last:spans[i].start])
		b.WriteString(with[k])
		last = spans[i].end
	}
	b.WriteString(text[last:])
	return b.String()
}

// word is one identifier or keyword of a text.
type word struct {
	start, end int
}

// words finds a text's identifiers and keywords, skipping string literals,
// and the symbol that follows each (0 for a word or the end).
func words(text string) (ws []word, next []byte) {
	isWord := func(c byte) bool {
		return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
	}
	for i := 0; i < len(text); {
		switch c := text[i]; {
		case c == '\'':
			for i++; i < len(text) && (text[i] != '\'' || i+1 < len(text) && text[i+1] == '\''); i++ {
				if text[i] == '\'' {
					i++
				}
			}
			i++
		case isWord(c) && !(c >= '0' && c <= '9'):
			j := i
			for j < len(text) && isWord(text[j]) {
				j++
			}
			ws = append(ws, word{i, j})
			i = j
		case isWord(c):
			for i < len(text) && isWord(text[i]) {
				i++
			}
		default:
			i++
		}
	}
	for _, w := range ws {
		k := w.end
		for k < len(text) && (text[k] == ' ' || text[k] == '\t' || text[k] == '\n') {
			k++
		}
		if k < len(text) && !isWord(text[k]) {
			next = append(next, text[k])
		} else {
			next = append(next, 0)
		}
	}
	return ws, next
}

// prevSymbol is the last non-blank byte of text before i.
func prevSymbol(text string, i int) byte {
	for i--; i >= 0; i-- {
		if c := text[i]; c != ' ' && c != '\t' && c != '\n' {
			return c
		}
	}
	return 0
}

// renameAliases rewrites text's select-list aliases (an identifier after
// AS before FROM) and the whole ORDER BY items naming them, each alias
// group by case-folded text at once. The rename is one of four kinds:
// fresh names in mixed letter case, the old names upper-cased, one alias
// renamed to another's name (a duplicate), or one renamed to an unaliased
// column of the select list. It returns text unchanged when it has no
// aliases.
func renameAliases(rng *rand.Rand, text string, kind int) string {
	ws, next := words(text)
	up := func(i int) string { return strings.ToUpper(text[ws[i].start:ws[i].end]) }
	from := len(ws)
	for i := range ws {
		if up(i) == "FROM" {
			from = i
			break
		}
	}
	groups := map[string][]int{} // lower-cased alias → word indexes
	var order []string
	var unaliased []string
	for i := 1; i < from; i++ {
		name := strings.ToLower(text[ws[i].start:ws[i].end])
		switch {
		case up(i-1) == "AS":
			if groups[name] == nil {
				order = append(order, name)
			}
			groups[name] = append(groups[name], i)
		case (next[i] == ',' || next[i] == 0 && i+1 == from) && (up(i-1) == "SELECT" || prevSymbol(text, ws[i].start) == ','):
			unaliased = append(unaliased, text[ws[i].start:ws[i].end])
		}
	}
	if len(order) == 0 {
		return text
	}
	inOrder := false
	for i := from; i < len(ws); i++ {
		switch up(i) {
		case "ORDER":
			inOrder = true
			continue
		case "LIMIT":
			inOrder = false
		}
		name := strings.ToLower(text[ws[i].start:ws[i].end])
		if inOrder && groups[name] != nil && next[i] != '.' && next[i] != '(' {
			groups[name] = append(groups[name], i)
		}
	}
	to := map[string]string{}
	for _, name := range order {
		switch kind {
		case 0:
			to[name] = fmt.Sprintf("al_%d", rng.Intn(1000))
		case 1:
			to[name] = strings.ToUpper(name)
		default:
			to[name] = name
		}
	}
	switch g := order[rng.Intn(len(order))]; {
	case kind == 2 && len(order) > 1:
		to[g] = order[rng.Intn(len(order))]
	case kind == 3 && len(unaliased) > 0:
		to[g] = unaliased[rng.Intn(len(unaliased))]
	}
	with := make(map[int]string)
	for name, idx := range groups {
		for _, i := range idx {
			w := []byte(to[name])
			if kind == 0 {
				for k := range w {
					if rng.Intn(2) == 0 && w[k] >= 'a' && w[k] <= 'z' {
						w[k] -= 'a' - 'A'
					}
				}
			}
			with[i] = string(w)
		}
	}
	var b strings.Builder
	last := 0
	for i, w := range ws {
		if r, ok := with[i]; ok {
			b.WriteString(text[last:w.start])
			b.WriteString(r)
			last = w.end
		}
	}
	b.WriteString(text[last:])
	return b.String()
}

// shapeKey is a text's plan-cache key, "" when it does not lex.
func shapeKey(t *testing.T, text string) string {
	t.Helper()
	s, err := sql.Lex(text)
	if err != nil {
		return ""
	}
	return string(s.Key())
}

// boundLiterals returns the indexes of text's literals that the plan cache
// binds: those whose change leaves the shape key as it is.
func boundLiterals(t *testing.T, text string, spans []literalSpan) []int {
	t.Helper()
	key := shapeKey(t, text)
	var bound []int
	for i, sp := range spans {
		other := "7"
		if sp.str {
			other = "'x'"
		} else if strings.Contains(text[sp.start:sp.end], ".") {
			other = "7.5"
		}
		if text[sp.start:sp.end] == other {
			other = strings.Replace(other, "7", "8", 1)
		}
		if shapeKey(t, substitute(text, spans, []int{i}, []string{other})) == key {
			bound = append(bound, i)
		}
	}
	return bound
}

// freshResult plans text fresh, outside the plan cache, and runs it on the
// served path: what db.Query returned before the cache existed.
func freshResult(ctx context.Context, db *DB, text string) (*Result, error) {
	_, p, err := db.planPair(text, PlanOptions{}, true)
	if err != nil {
		return nil, err
	}
	return collect(db.execPlan(ctx, p, QueryOptions{}))
}

// sameOutcome reports how got differs from want — columns, rows and error
// text must all be identical — or "".
func sameOutcome(got *Result, gotErr error, want *Result, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Sprintf("error %v, fresh error %v", gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %q, fresh error %q", gotErr, wantErr)
		}
		return ""
	case !reflect.DeepEqual(got.Columns, want.Columns):
		return fmt.Sprintf("columns %v, fresh %v", got.Columns, want.Columns)
	case !reflect.DeepEqual(got.Rows, want.Rows):
		return fmt.Sprintf("%d rows, fresh %d rows (or different values)", len(got.Rows), len(want.Rows))
	}
	return ""
}

// TestPlanCacheLiteralSubstitution is the plan cache's differential test:
// for every text, new literals of the same class are drawn for its bound
// literals and its output aliases are renamed (renameAliases), and db.Query
// — a bound template when the shape is cached — must answer exactly as a
// fresh plan of the new text run on the served path: same column names,
// same rows, same error. Drawn literals must keep the text's shape key,
// and a variant whose renamed aliases keep it too must be a hit. It runs
// with and without the semantic reuse cache, whose fingerprints must see
// the bound constants.
func TestPlanCacheLiteralSubstitution(t *testing.T) {
	ctx := context.Background()
	dbs := []struct {
		name string
		db   *DB
	}{{"plain", testDB}, {"reuse", newReuseDB(t, Options{ReuseCache: true})}}
	hits := metricPlanCache("hits")
	for _, d := range dbs {
		t.Run(d.name, func(t *testing.T) {
			db := d.db
			rng := rand.New(rand.NewSource(3))
			bound, hitsSeen, renamedHits := 0, 0, 0
			for ti, text := range planCacheTexts() {
				want, wantErr := freshResult(ctx, db, text)
				got, gotErr := db.Query(ctx, text)
				if diff := sameOutcome(got, gotErr, want, wantErr); diff != "" {
					t.Fatalf("text %d as written: %s\n%s", ti, diff, text)
				}
				var cols []string // the text's own column names
				if want != nil {
					cols = want.Columns
				}
				spans := literalSpans(text)
				pick := boundLiterals(t, text, spans)
				bound += len(pick)
				for v := 0; v < 4; v++ {
					with := make([]string, len(pick))
					for k, i := range pick {
						with[k] = drawLiteral(rng, text[spans[i].start:spans[i].end], spans[i].str)
					}
					lit := substitute(text, spans, pick, with)
					if shapeKey(t, lit) != shapeKey(t, text) {
						t.Errorf("text %d variant %d: drawn bound literals changed the shape key:\n%s", ti, v, lit)
					}
					variant := renameAliases(rng, lit, v)
					h0 := hits.Value()
					got, gotErr := db.Query(ctx, variant)
					hit := hits.Value() > h0
					want, wantErr := freshResult(ctx, db, variant)
					if diff := sameOutcome(got, gotErr, want, wantErr); diff != "" {
						t.Fatalf("text %d variant %d (hit %v): %s\n%s", ti, v, hit, diff, variant)
					}
					switch {
					case hit:
						hitsSeen++
						if gotErr == nil && !reflect.DeepEqual(got.Columns, cols) {
							renamedHits++
						}
					case wantErr == nil && shapeKey(t, variant) == shapeKey(t, text):
						t.Errorf("text %d variant %d planned fresh although its shape is cached:\n%s", ti, v, variant)
					}
				}
			}
			if bound == 0 || hitsSeen == 0 || renamedHits == 0 {
				t.Fatalf("varied %d bound literals with %d hits, %d with renamed columns: the test exercised nothing",
					bound, hitsSeen, renamedHits)
			}
			t.Logf("%d texts, %d bound literals, %d hits, %d with renamed columns",
				len(planCacheTexts()), bound, hitsSeen, renamedHits)
		})
	}
}

// TestPlanCacheBindIsConstruction: binding a fresh plan with its own
// literals reproduces it — every node label (constants, folding and LIKE
// patterns render there), every estimate and the reuse fingerprint — so
// one analysis path serves the fresh plan and the template.
func TestPlanCacheBindIsConstruction(t *testing.T) {
	for ti, text := range planCacheTexts() {
		_, p, err := testDB.planPair(text, PlanOptions{}, true)
		if err != nil {
			t.Fatalf("text %d: %v", ti, err)
		}
		shape, err := sql.Lex(text)
		if err != nil {
			t.Fatal(err)
		}
		b, err := plan.Bind(p, shape.Arg, shape.Names(p.Schema()))
		if err != nil {
			t.Fatalf("text %d: bind with its own literals: %v", ti, err)
		}
		if got, want := plan.Explain(b), plan.Explain(p); got != want {
			t.Errorf("text %d: bound plan\n%s\nfresh plan\n%s", ti, got, want)
		}
		fb, _, okb := plan.Fingerprint(b, testDB.epochs)
		fp, _, okp := plan.Fingerprint(p, testDB.epochs)
		if fb != fp || okb != okp {
			t.Errorf("text %d: bound fingerprint %q, fresh %q", ti, fb, fp)
		}
	}
}

// TestPlanCachePinnedLiteralsMiss: a literal read for more than its value —
// LIMIT, ORDER BY and GROUP BY ordinals or renderings, select-list
// literals naming an output column, INTERVAL quantities — is part of the
// shape key, so changing it plans fresh and answers like a fresh plan.
func TestPlanCachePinnedLiteralsMiss(t *testing.T) {
	ctx := context.Background()
	pairs := [][2]string{
		{`SELECT n_name FROM nation WHERE n_nationkey > 3 ORDER BY n_name LIMIT 5`,
			`SELECT n_name FROM nation WHERE n_nationkey > 3 ORDER BY n_name LIMIT 6`},
		{`SELECT n_name, n_regionkey FROM nation WHERE n_nationkey > 3 ORDER BY 1`,
			`SELECT n_name, n_regionkey FROM nation WHERE n_nationkey > 3 ORDER BY 2`},
		{`SELECT n_nationkey + 1 FROM nation WHERE n_nationkey > 3`,
			`SELECT n_nationkey + 2 FROM nation WHERE n_nationkey > 3`},
		{`SELECT SUM(l_quantity * 2), SUM(l_quantity * 2) FROM lineitem WHERE l_quantity > 3`,
			`SELECT SUM(l_quantity * 2), SUM(l_quantity * 3) FROM lineitem WHERE l_quantity > 3`},
		{`SELECT l_quantity + 1, COUNT(*) FROM lineitem WHERE l_tax < 0.05 GROUP BY l_quantity + 1 ORDER BY 1`,
			`SELECT l_quantity + 2, COUNT(*) FROM lineitem WHERE l_tax < 0.05 GROUP BY l_quantity + 2 ORDER BY 1`},
		{`SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY`,
			`SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '30' DAY`},
		{`SELECT COUNT(*) FROM nation WHERE n_nationkey = 1`, `SELECT COUNT(*) FROM nation WHERE n_nationkey = 1.0`},
		{`SELECT COUNT(*) FROM nation WHERE n_name = '1'`, `SELECT COUNT(*) FROM nation WHERE n_name = 1`},
	}
	misses := metricPlanCache("misses")
	for i, pair := range pairs {
		if shapeKey(t, pair[0]) == shapeKey(t, pair[1]) {
			t.Errorf("pair %d: one shape key for\n%s\n%s", i, pair[0], pair[1])
			continue
		}
		if _, err := testDB.Query(ctx, pair[0]); err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		m0 := misses.Value()
		got, gotErr := testDB.Query(ctx, pair[1])
		if misses.Value() == m0 {
			t.Errorf("pair %d: the second text did not plan fresh", i)
		}
		want, wantErr := freshResult(ctx, testDB, pair[1])
		if diff := sameOutcome(got, gotErr, want, wantErr); diff != "" {
			t.Errorf("pair %d: %s", i, diff)
		}
	}
}

// TestPlanCacheFailedBindPlansFresh: a bound literal the template's
// conversion rejects (an impossible date, an integer past 64 bits) plans
// the text fresh, so the client sees the fresh path's error, and the
// failed plan is never kept: the shape's template still serves the next
// valid text.
func TestPlanCacheFailedBindPlansFresh(t *testing.T) {
	ctx := context.Background()
	db, err := OpenTPCH(0.002, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	good := `SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1995-06-17' AND l_orderkey <> 5`
	bad := []string{
		`SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1995-13-45' AND l_orderkey <> 5`,
		`SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1995-06-17' AND l_orderkey <> 99999999999999999999`,
		`SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= 'yesterday' AND l_orderkey <> 5`,
	}
	if _, err := db.Query(ctx, good); err != nil {
		t.Fatal(err)
	}
	key := []byte(shapeKey(t, good))
	template := db.plans.get(key)
	for _, text := range bad {
		_, gotErr := db.Query(ctx, text)
		_, wantErr := freshResult(ctx, db, text)
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s:\n got error %v\nfresh error %v", text, gotErr, wantErr)
		}
		if db.plans.get([]byte(shapeKey(t, text))) != template && shapeKey(t, text) == string(key) {
			t.Errorf("%s: a failed plan replaced the template", text)
		}
	}
	// A shape first seen with a failing text keeps no template either.
	if _, err := db.Query(ctx, `SELECT COUNT(*) FROM orders WHERE o_orderdate < DATE '1995-02-30'`); err == nil {
		t.Fatal("an impossible date planned")
	}
	if db.plans.get([]byte(shapeKey(t, `SELECT COUNT(*) FROM orders WHERE o_orderdate < DATE '1995-02-30'`))) != nil {
		t.Error("a failed plan was cached")
	}
	hits := metricPlanCache("hits")
	h0 := hits.Value()
	res, err := db.Query(ctx, `SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1996-01-01' AND l_orderkey <> 6`)
	if err != nil || hits.Value() != h0+1 {
		t.Fatalf("the template no longer serves its shape: err %v, hits %d", err, hits.Value()-h0)
	}
	want, _ := freshResult(ctx, db, `SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1996-01-01' AND l_orderkey <> 6`)
	if diff := sameOutcome(res, nil, want, nil); diff != "" {
		t.Error(diff)
	}
}

// TestPlanCacheConcurrentHits binds one template from 8 goroutines at once,
// each with its own literals, and checks every answer against the fresh
// plan's; under -race it shows a template is only ever read.
func TestPlanCacheConcurrentHits(t *testing.T) {
	ctx := context.Background()
	want := make([]*Result, 25)
	for k := range want {
		r, err := freshResult(ctx, testDB, adhocLookup(25+k))
		if err != nil {
			t.Fatal(err)
		}
		want[k] = r
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				s := 1 + g*1000 + i
				got, err := testDB.Query(ctx, adhocLookup(s))
				if diff := sameOutcome(got, err, want[s%25], nil); diff != "" {
					t.Errorf("goroutine %d lookup %d: %s", g, s, diff)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// servedDashboard is served_short's dashboard (benchmark/workload.go):
// four group columns by four ship-date years; its alias_reuse class renames
// every output column with a new suffix per op.
func servedDashboard(i int, suffix string) string {
	groups := []string{"l_returnflag", "l_linestatus", "l_shipmode", "l_shipinstruct"}
	g, y := groups[i%4], 1993+i/4
	return fmt.Sprintf(
		"SELECT %s AS grp%s, SUM(l_extendedprice * (1 - l_discount)) AS revenue%s, COUNT(*) AS n%s FROM lineitem"+
			" WHERE l_shipdate >= DATE '%d-01-01' AND l_shipdate < DATE '%d-01-01' GROUP BY %s ORDER BY 1",
		g, suffix, suffix, suffix, y, y+1, g)
}

// TestPlanCacheServedMix replays served_short's planning in process, on a
// database with the reuse cache on as the benchmark's daemon has it: the 16
// dashboards, then 200 rounds of each dashboard under a new alias suffix,
// three lookups per dashboard with new sentinels, and a prepared dashboard.
// Only the first text of each shape may plan fresh: 5 shapes, since a
// dashboard's year is a bound literal (4 group columns) and every lookup is
// one shape. Every renamed dashboard must carry its own column names.
func TestPlanCacheServedMix(t *testing.T) {
	ctx := context.Background()
	db := newReuseDB(t, Options{ReuseCache: true})
	hits, misses := metricPlanCache("hits"), metricPlanCache("misses")
	h0, m0 := hits.Value(), misses.Value()
	shapes := map[string]bool{}
	planned := 0
	query := func(text string) *Result {
		t.Helper()
		res, err := db.Query(ctx, text)
		if err != nil {
			t.Fatal(err)
		}
		shapes[shapeKey(t, text)] = true
		planned++
		return res
	}
	const dashboards = 16
	for i := 0; i < dashboards; i++ {
		query(servedDashboard(i, ""))
	}
	sentinel := 0
	for round := 0; round < 200; round++ {
		for i := 0; i < dashboards; i++ {
			suffix := fmt.Sprintf("_%d", round*dashboards+i)
			res := query(servedDashboard(i, suffix))
			if want := []string{"grp" + suffix, "revenue" + suffix, "n" + suffix}; !reflect.DeepEqual(res.Columns, want) {
				t.Fatalf("dashboard %d columns %v, want %v", i, res.Columns, want)
			}
			for k := 0; k < 3; k++ {
				sentinel++
				query(adhocLookup(sentinel))
			}
		}
		text := servedDashboard(round%dashboards, "")
		st, err := db.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Query(ctx); err != nil {
			t.Fatal(err)
		}
		// Prepare plans the text to check it and each execution plans it
		// again: two statements, one shape.
		shapes[shapeKey(t, text)] = true
		planned += 2
	}
	if len(shapes) != 5 {
		t.Fatalf("the mix has %d shapes, want 5", len(shapes))
	}
	gotMisses, gotHits := misses.Value()-m0, hits.Value()-h0
	if gotMisses != uint64(len(shapes)) || gotHits != uint64(planned-len(shapes)) {
		t.Errorf("%d statements planned: %d misses, %d hits; want %d misses", planned, gotMisses, gotHits, len(shapes))
	}
}
