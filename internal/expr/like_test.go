package expr

import (
	"strings"
	"testing"

	"bufferdb/internal/storage"
)

func TestLikeFastPaths(t *testing.T) {
	cases := []struct {
		pattern string
		input   string
		want    bool
	}{
		{"PROMO%", "PROMO BURNISHED", true},
		{"PROMO%", "STANDARD", false},
		{"%BRASS", "SMALL BRASS", true},
		{"%BRASS", "BRASS PLATE", false},
		{"%green%", "slate green powder", true},
		{"%green%", "slate red powder", false},
		{"exact", "exact", true},
		{"exact", "exactly", false},
		{"%", "", true},
		{"%", "anything", true},
		{"", "", true},
		{"", "x", false},
	}
	for _, c := range cases {
		l, err := NewLike(strc(c.input), c.pattern, false)
		if err != nil {
			t.Fatalf("NewLike(%q): %v", c.pattern, err)
		}
		got := mustEval(t, l, nil)
		if got.Bool() != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.input, c.pattern, got.Bool(), c.want)
		}
	}
}

func TestLikeGeneralWildcards(t *testing.T) {
	cases := []struct {
		pattern string
		input   string
		want    bool
	}{
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"a_c", "abbc", false},
		{"a%b%c", "aXbYc", true},
		{"a%b%c", "acb", false},
		{"_%_", "ab", true},
		{"_%_", "a", false},
		{"%a_", "zzaq", true},
		{"ab%", "ab", true},
		{"%%", "x", true},
		{"a%%b", "ab", true},
		// A '%' in the input is data, not a match for the pattern's wildcard.
		{"%_", "%", true},
		{"%_x", "%%x", true},
		{"_%", "%", true},
	}
	for _, c := range cases {
		l, err := NewLike(strc(c.input), c.pattern, false)
		if err != nil {
			t.Fatal(err)
		}
		got := mustEval(t, l, nil)
		if got.Bool() != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.input, c.pattern, got.Bool(), c.want)
		}
	}
}

func TestNotLikeAndNull(t *testing.T) {
	l, err := NewLike(strc("STANDARD"), "PROMO%", true)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, l, nil); !got.Bool() {
		t.Error("'STANDARD' NOT LIKE 'PROMO%' = false")
	}
	ln, err := NewLike(nullc(), "x%", false)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, ln, nil); !got.IsNull() {
		t.Error("NULL LIKE pattern must be NULL")
	}
	if _, err := NewLike(intc(1), "x", false); err == nil {
		t.Error("LIKE over int accepted")
	}
	if l.Type() != storage.TypeBool {
		t.Error("LIKE type must be BOOLEAN")
	}
	if !strings.Contains(l.String(), "NOT LIKE") {
		t.Errorf("render: %q", l.String())
	}
}
