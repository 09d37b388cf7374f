package sql

import (
	"strings"
	"testing"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/plan"
	"bufferdb/internal/storage"
	"bufferdb/internal/tpch"
)

var testDB = func() *storage.Catalog {
	cat, err := tpch.Generate(tpch.Config{ScaleFactor: 0.002})
	if err != nil {
		panic(err)
	}
	return cat
}()

// runSQL plans and executes a query, uninstrumented.
func runSQL(t *testing.T, query string, opt Options) []storage.Row {
	t.Helper()
	p, err := PlanQuery(query, testDB, opt)
	if err != nil {
		t.Fatalf("plan %q: %v", query, err)
	}
	op, err := plan.Compile(p, nil, plan.EngineVolcano)
	if err != nil {
		t.Fatalf("build %q: %v", query, err)
	}
	rows, err := exec.Run(&exec.Context{Catalog: testDB}, op)
	if err != nil {
		t.Fatalf("run %q: %v", query, err)
	}
	return rows
}

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT a1, 'it''s' FROM t -- comment\nWHERE x <= 1.5 AND y != 2;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.text)
	}
	joined := strings.Join(texts, " ")
	for _, want := range []string{"SELECT", "a1", "it's", "<=", "1.5", "<>", ";"} {
		if !strings.Contains(joined, want) {
			t.Errorf("token stream %q missing %q", joined, want)
		}
	}
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lex("SELECT a ? b"); err == nil {
		t.Error("bad character accepted")
	}
}

func TestParserBasics(t *testing.T) {
	stmt, err := Parse(`SELECT COUNT(*) AS n, SUM(l_quantity)
		FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' LIMIT 10;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 2 || stmt.Items[0].Alias != "n" {
		t.Errorf("items = %+v", stmt.Items)
	}
	if len(stmt.From) != 1 || stmt.From[0].Name != "lineitem" {
		t.Errorf("from = %+v", stmt.From)
	}
	if stmt.Where == nil || stmt.Limit != 10 {
		t.Errorf("where/limit: %v %d", stmt.Where, stmt.Limit)
	}
}

func TestParserPrecedence(t *testing.T) {
	stmt, err := Parse("SELECT a + b * c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	got := astString(stmt.Items[0].Expr)
	if got != "(a + (b * c))" {
		t.Errorf("precedence render = %q", got)
	}
	stmt, err = Parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	if got := astString(stmt.Where); got != "((a = 1) OR ((b = 2) AND (c = 3)))" {
		t.Errorf("logic precedence = %q", got)
	}
}

func TestParserConstructs(t *testing.T) {
	cases := []string{
		"SELECT * FROM t WHERE a BETWEEN 1 AND 2",
		"SELECT * FROM t WHERE a NOT BETWEEN 1 AND 2",
		"SELECT * FROM t WHERE s LIKE 'PROMO%'",
		"SELECT * FROM t WHERE s NOT LIKE 'PROMO%'",
		"SELECT * FROM t WHERE s IS NULL",
		"SELECT * FROM t WHERE s IS NOT NULL",
		"SELECT * FROM t WHERE NOT (a = 1)",
		"SELECT * FROM t WHERE d < DATE '1995-01-01' - INTERVAL '90' DAY",
		"SELECT * FROM t WHERE d < DATE '1995-01-01' + INTERVAL '3' MONTH",
		"SELECT -a FROM t",
		"SELECT MIN(a), MAX(b), AVG(c) FROM t",
		"SELECT a FROM t ORDER BY a DESC, 1 ASC",
		"SELECT o.a, l.b FROM orders o, lineitem l WHERE o.k = l.k",
		"SELECT a FROM t1 JOIN t2 ON t1.x = t2.y",
		"SELECT a FROM t WHERE b = TRUE OR b = FALSE OR c = NULL",
	}
	for _, q := range cases {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
	bad := []string{
		"",
		"SELECT",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP a",
		"SELECT a FROM t HAVING a > 1",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t extra garbage following (",
		"SELECT COUNT(* FROM t",
		"SELECT a FROM t WHERE d < DATE 42",
		"SELECT a FROM t WHERE d < INTERVAL '3' FORTNIGHT",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) accepted", q)
		}
	}
}

func TestQuery1EndToEnd(t *testing.T) {
	// The paper's Query 1.
	rows := runSQL(t, `
		SELECT SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
		       AVG(l_quantity) AS avg_qty,
		       COUNT(*) AS count_order
		FROM lineitem
		WHERE l_shipdate <= DATE '1998-09-02'`, Options{})
	if len(rows) != 1 {
		t.Fatalf("Q1 returned %d rows", len(rows))
	}
	// Brute-force reference.
	li, _ := testDB.Table("lineitem")
	sch := li.Schema()
	ship, _ := sch.ColumnIndex("", "l_shipdate")
	price, _ := sch.ColumnIndex("", "l_extendedprice")
	disc, _ := sch.ColumnIndex("", "l_discount")
	tax, _ := sch.ColumnIndex("", "l_tax")
	qty, _ := sch.ColumnIndex("", "l_quantity")
	cutoff := storage.DateFromYMD(1998, 9, 2).I
	var sum, qsum float64
	var n int64
	for _, r := range li.Rows() {
		if r[ship].I > cutoff {
			continue
		}
		sum += r[price].F * (1 - r[disc].F) * (1 + r[tax].F)
		qsum += r[qty].F
		n++
	}
	got := rows[0]
	if got[2].I != n {
		t.Errorf("count_order = %d, want %d", got[2].I, n)
	}
	if diff := got[0].F - sum; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("sum_charge = %v, want %v", got[0].F, sum)
	}
	wantAvg := qsum / float64(n)
	if diff := got[1].F - wantAvg; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("avg_qty = %v, want %v", got[1].F, wantAvg)
	}
}

func TestGroupByOrderBy(t *testing.T) {
	rows := runSQL(t, `
		SELECT l_returnflag, l_linestatus, COUNT(*) AS n, SUM(l_quantity) AS q
		FROM lineitem
		GROUP BY l_returnflag, l_linestatus
		ORDER BY l_returnflag, l_linestatus`, Options{})
	if len(rows) < 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	li, _ := testDB.Table("lineitem")
	total := int64(0)
	for i, r := range rows {
		total += r[2].I
		if i > 0 {
			prev := rows[i-1]
			if prev[0].S > r[0].S || (prev[0].S == r[0].S && prev[1].S >= r[1].S) {
				t.Errorf("output not ordered at %d", i)
			}
		}
	}
	if total != int64(li.NumRows()) {
		t.Errorf("counts sum to %d, want %d", total, li.NumRows())
	}
}

func TestJoinMethodsAgreeViaSQL(t *testing.T) {
	const q = `
		SELECT SUM(o_totalprice), COUNT(*), AVG(l_discount)
		FROM lineitem, orders
		WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1995-06-17'`
	// External reference, so that all three methods being equally wrong
	// cannot pass.
	li, _ := testDB.Table("lineitem")
	orders, _ := testDB.Table("orders")
	ship, _ := li.Schema().ColumnIndex("", "l_shipdate")
	cutoff := storage.DateFromYMD(1995, 6, 17).I
	var wantSum float64
	var wantN int64
	for _, r := range li.Rows() {
		if r[ship].I <= cutoff {
			wantSum += orders.Row(int(r[0].I) - 1)[3].F
			wantN++
		}
	}
	for _, method := range []JoinMethod{JoinHash, JoinNestLoop, JoinMerge} {
		rows := runSQL(t, q, Options{ForceJoin: method})
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows", method, len(rows))
		}
		if got := rows[0][1].I; got != wantN {
			t.Errorf("%s count = %d, want %d", method, got, wantN)
		}
		if got := rows[0][0].F; got < wantSum*(1-1e-9) || got > wantSum*(1+1e-9) {
			t.Errorf("%s sum(o_totalprice) = %v, want %v", method, got, wantSum)
		}
	}
}

func TestForcedJoinPlansHaveExpectedShape(t *testing.T) {
	const q = `
		SELECT COUNT(*)
		FROM lineitem, orders
		WHERE l_orderkey = o_orderkey`
	shapes := map[JoinMethod]plan.Kind{
		JoinHash:     plan.KindHashJoin,
		JoinNestLoop: plan.KindNestLoopJoin,
		JoinMerge:    plan.KindMergeJoin,
	}
	for method, kind := range shapes {
		p, err := PlanQuery(q, testDB, Options{ForceJoin: method})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if plan.CountKind(p, kind) != 1 {
			t.Errorf("%s: no %v node:\n%s", method, kind, plan.Explain(p))
		}
	}
	// The merge plan uses the ordered index scan of orders.
	p, _ := PlanQuery(q, testDB, Options{ForceJoin: JoinMerge})
	if plan.CountKind(p, plan.KindIndexFullScan) != 1 {
		t.Errorf("merge plan lacks IndexFullScan:\n%s", plan.Explain(p))
	}
}

func TestThreeWayJoin(t *testing.T) {
	rows := runSQL(t, `
		SELECT COUNT(*)
		FROM customer, orders, lineitem
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
		  AND c_mktsegment = 'BUILDING'`, Options{})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Reference: count lineitems of orders of BUILDING customers.
	cust, _ := testDB.Table("customer")
	orders, _ := testDB.Table("orders")
	li, _ := testDB.Table("lineitem")
	seg, _ := cust.Schema().ColumnIndex("", "c_mktsegment")
	building := map[int64]bool{}
	for _, r := range cust.Rows() {
		if r[seg].S == "BUILDING" {
			building[r[0].I] = true
		}
	}
	orderOK := map[int64]bool{}
	for _, r := range orders.Rows() {
		if building[r[1].I] {
			orderOK[r[0].I] = true
		}
	}
	want := int64(0)
	for _, r := range li.Rows() {
		if orderOK[r[0].I] {
			want++
		}
	}
	if rows[0][0].I != want {
		t.Errorf("3-way join count = %d, want %d", rows[0][0].I, want)
	}
}

func TestProjectionAndScalars(t *testing.T) {
	rows := runSQL(t, `
		SELECT l_orderkey, l_extendedprice * (1 - l_discount) AS net
		FROM lineitem
		WHERE l_quantity < 2
		ORDER BY net DESC
		LIMIT 5`, Options{})
	if len(rows) > 5 {
		t.Fatalf("LIMIT ignored: %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][1].F < rows[i][1].F {
			t.Errorf("ORDER BY DESC violated at %d", i)
		}
	}
}

func TestStringDateCoercion(t *testing.T) {
	a := runSQL(t, "SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1995-06-17'", Options{})
	b := runSQL(t, "SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= '1995-06-17'", Options{})
	if a[0][0].I != b[0][0].I {
		t.Errorf("coerced date literal differs: %d vs %d", a[0][0].I, b[0][0].I)
	}
}

func TestLikeAndBetweenEndToEnd(t *testing.T) {
	rows := runSQL(t, `
		SELECT COUNT(*) FROM part
		WHERE p_type LIKE 'PROMO%' AND p_size BETWEEN 1 AND 15`, Options{})
	part, _ := testDB.Table("part")
	sch := part.Schema()
	ty, _ := sch.ColumnIndex("", "p_type")
	size, _ := sch.ColumnIndex("", "p_size")
	want := int64(0)
	for _, r := range part.Rows() {
		if strings.HasPrefix(r[ty].S, "PROMO") && r[size].I >= 1 && r[size].I <= 15 {
			want++
		}
	}
	if rows[0][0].I != want {
		t.Errorf("LIKE+BETWEEN count = %d, want %d", rows[0][0].I, want)
	}
}

func TestAnalyzerErrors(t *testing.T) {
	bad := []struct {
		q   string
		opt Options
	}{
		{"SELECT * FROM nosuchtable", Options{}},
		{"SELECT nosuchcol FROM lineitem", Options{}},
		{"SELECT l_orderkey FROM lineitem, orders", Options{}}, // cross join
		{"SELECT * FROM lineitem l, lineitem l", Options{}},    // dup binding
		{"SELECT COUNT(*), l_orderkey FROM lineitem", Options{}},
		{"SELECT * FROM lineitem GROUP BY l_orderkey", Options{}},
		{"SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_comment = o_comment AND l_partkey = 3 OR 1 = 1", Options{}},
		{"SELECT COUNT(*) FROM orders, customer WHERE o_custkey = c_custkey", Options{ForceJoin: "bogus"}},
	}
	for _, c := range bad {
		if _, err := PlanQuery(c.q, testDB, c.opt); err == nil {
			t.Errorf("PlanQuery(%q) accepted", c.q)
		}
	}
}

func TestRefinedSQLPlanRuns(t *testing.T) {
	// End-to-end: SQL → plan → refinement → execution, instrumented off.
	p, err := PlanQuery(`
		SELECT SUM(l_extendedprice), AVG(l_quantity), COUNT(*)
		FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'`, testDB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cmCat := newTestCodeModel()
	refined, _, err := plan.Refine(p, cmCat, plan.RefineOptions{CardinalityThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if plan.CountKind(refined, plan.KindBuffer) == 0 {
		t.Fatalf("refinement added no buffer:\n%s", plan.Explain(refined))
	}
	a, err := plan.Compile(p, nil, plan.EngineVolcano)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plan.Compile(refined, nil, plan.EngineVolcano)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := exec.Run(&exec.Context{Catalog: testDB}, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := exec.Run(&exec.Context{Catalog: testDB}, b)
	if err != nil {
		t.Fatal(err)
	}
	if ra[0].String() != rb[0].String() {
		t.Errorf("refined plan changed result: %s vs %s", rb[0], ra[0])
	}
}

// newTestCodeModel builds a fresh code model for refinement tests.
func newTestCodeModel() *codemodel.Catalog { return codemodel.NewCatalog() }

// TestIsInsert pins the routing predicate, Shape.IsInsert: leading
// whitespace and -- line comments are not tokens, and INSERT matches only
// as a whole token.
func TestIsInsert(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"INSERT INTO t VALUES (1)", true},
		{"  \t\n insert into t values (1)", true},
		{"-- note\nINSERT INTO t VALUES (1)", true},
		{"-- one\n  -- two\r\n\tInSeRt INTO t VALUES (1)", true},
		{"INSERT", true},
		{"SELECT 1", false},
		{"-- INSERT INTO t VALUES (1)", false},
		{"-- comment only", false},
		{"inserted_rows FROM t", false},
		{"INSERTX", false},
		{"", false},
		{"   ", false},
	}
	for _, c := range cases {
		shape, err := Lex(c.in)
		if err != nil {
			t.Fatalf("Lex(%q): %v", c.in, err)
		}
		if got := shape.IsInsert(); got != c.want {
			t.Errorf("Lex(%q).IsInsert() = %v, want %v", c.in, got, c.want)
		}
	}
}
