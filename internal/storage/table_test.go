package storage

import (
	"errors"
	"strings"
	"testing"
)

func testSchema() Schema {
	return Schema{
		{Table: "t", Name: "a", Type: TypeInt64},
		{Table: "t", Name: "b", Type: TypeString},
		{Table: "t", Name: "c", Type: TypeFloat64},
	}
}

func TestSchemaColumnIndex(t *testing.T) {
	s := testSchema()
	if i, err := s.ColumnIndex("", "b"); err != nil || i != 1 {
		t.Errorf("ColumnIndex(b) = %d, %v", i, err)
	}
	if i, err := s.ColumnIndex("t", "c"); err != nil || i != 2 {
		t.Errorf("ColumnIndex(t.c) = %d, %v", i, err)
	}
	if i, err := s.ColumnIndex("u", "c"); err != nil || i != -1 {
		t.Errorf("ColumnIndex(u.c) = %d, %v, want -1", i, err)
	}
	if i, err := s.ColumnIndex("", "missing"); err != nil || i != -1 {
		t.Errorf("ColumnIndex(missing) = %d, %v, want -1", i, err)
	}
	// Case-insensitive resolution.
	if i, err := s.ColumnIndex("T", "B"); err != nil || i != 1 {
		t.Errorf("ColumnIndex(T.B) = %d, %v", i, err)
	}
	// Ambiguity.
	dup := append(Schema{}, s...)
	dup = append(dup, Column{Table: "u", Name: "a", Type: TypeInt64})
	if _, err := dup.ColumnIndex("", "a"); err == nil {
		t.Error("ambiguous reference not reported")
	}
	if i, err := dup.ColumnIndex("u", "a"); err != nil || i != 3 {
		t.Errorf("qualified reference in ambiguous schema = %d, %v", i, err)
	}
}

func TestSchemaConcatAndString(t *testing.T) {
	s := testSchema()
	u := Schema{{Table: "u", Name: "x", Type: TypeDate}}
	cat := s.Concat(u)
	if len(cat) != 4 || cat[3].Name != "x" {
		t.Errorf("Concat = %v", cat)
	}
	if !strings.Contains(s.String(), "t.b VARCHAR") {
		t.Errorf("Schema.String() = %q", s.String())
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	c[0] = NewInt(99)
	if r[0].I != 1 {
		t.Error("Clone did not deep-copy")
	}
	j := r.Concat(Row{NewFloat(2.5)})
	if len(j) != 3 || j[2].F != 2.5 {
		t.Errorf("Concat = %v", j)
	}
	if got := r.String(); got != "1|x" {
		t.Errorf("Row.String() = %q", got)
	}
}

func TestTableAppendAndRead(t *testing.T) {
	tbl := NewTable("t", testSchema())
	if tbl.NumRows() != 0 {
		t.Fatal("new table not empty")
	}
	id, err := tbl.Append(Row{NewInt(1), NewString("a"), NewFloat(0.5)})
	if err != nil || id != 0 {
		t.Fatalf("Append: %d, %v", id, err)
	}
	tbl.MustAppend(Row{NewInt(2), NewString("b"), NewFloat(1.5)})
	if tbl.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
	if got := tbl.Row(1)[1].S; got != "b" {
		t.Errorf("Row(1) col b = %q", got)
	}
	if len(tbl.Rows()) != 2 {
		t.Errorf("Rows() len = %d", len(tbl.Rows()))
	}
	if _, err := tbl.Append(Row{NewInt(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestUnknownTableSentinel(t *testing.T) {
	cat := NewCatalog()
	_, err := cat.Table("nope")
	if !errors.Is(err, ErrUnknownTable) {
		t.Errorf("Table(nope) error %v does not wrap ErrUnknownTable", err)
	}
}

func TestAvgRowBytes(t *testing.T) {
	tbl := NewTable("t", testSchema())
	if tbl.AvgRowBytes() <= 0 {
		t.Error("empty table must report a positive default width")
	}
	tbl2 := NewTable("t2", testSchema())
	for i := 0; i < 10; i++ {
		tbl2.MustAppend(Row{NewInt(1), NewString("abcd"), NewFloat(0.5)})
	}
	want := Row{NewInt(1), NewString("abcd"), NewFloat(0.5)}.ByteSize()
	if got := tbl2.AvgRowBytes(); got != want {
		t.Errorf("AvgRowBytes = %d, want %d", got, want)
	}
}

func TestIndexes(t *testing.T) {
	tbl := NewTable("t", testSchema())
	if err := tbl.AddIndex(&IndexMeta{Name: "t_a", Column: "a", Unique: true}); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	if err := tbl.AddIndex(&IndexMeta{Name: "t_a", Column: "a"}); err == nil {
		t.Error("duplicate index name accepted")
	}
	if err := tbl.AddIndex(&IndexMeta{Name: "t_z", Column: "z"}); err == nil {
		t.Error("index on missing column accepted")
	}
	if err := tbl.AddIndex(&IndexMeta{Column: "a"}); err == nil {
		t.Error("unnamed index accepted")
	}
	m := tbl.IndexOn("a")
	if m == nil || !m.Unique || m.Col != 0 {
		t.Errorf("IndexOn(a) = %+v", m)
	}
	if tbl.IndexOn("b") != nil {
		t.Error("IndexOn(b) found a ghost index")
	}
	if err := tbl.AddIndex(&IndexMeta{Name: "t_b", Column: "b"}); err != nil {
		t.Fatalf("AddIndex b: %v", err)
	}
	all := tbl.Indexes()
	if len(all) != 2 || all[0].Name != "t_a" || all[1].Name != "t_b" {
		t.Errorf("Indexes() = %v", all)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	c.MustAdd(NewTable("orders", testSchema()))
	if err := c.Add(NewTable("ORDERS", testSchema())); err == nil {
		t.Error("case-insensitive duplicate accepted")
	}
	tbl, err := c.Table("Orders")
	if err != nil || tbl.Name() != "orders" {
		t.Errorf("Table lookup: %v, %v", tbl, err)
	}
	if _, err := c.Table("nope"); err == nil {
		t.Error("missing table lookup succeeded")
	}
	c.MustAdd(NewTable("lineitem", testSchema()))
	tables := c.Tables()
	if len(tables) != 2 || tables[0].Name() != "lineitem" {
		t.Errorf("Tables() order: %v", tables)
	}
}
