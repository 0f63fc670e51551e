package predicate

import (
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"age < 30",
		"age <= 30",
		"age > 30",
		"age >= 30",
		"age = 30",
		"age != 30",
		"age < 30 and income > 1000",
		"age < 30 or income > 1000",
		"not age < 30",
		"(age < 30 or age > 60) and gender = 1",
		"true",
		"false",
	}
	for _, src := range cases {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		again, err := Parse(e.String())
		if err != nil {
			t.Fatalf("re-Parse(%q from %q): %v", e.String(), src, err)
		}
		if !Equal(e, again) {
			t.Fatalf("round trip of %q: %q != %q", src, e, again)
		}
	}
}

func TestParseSymbolicOperators(t *testing.T) {
	a, err := Parse("x < 1 ∧ ¬(y > 2 ∨ z = 3)")
	if err != nil {
		t.Fatalf("unicode operators: %v", err)
	}
	b := MustParse("x < 1 and !(y > 2 or z = 3)")
	if !Equal(a, b) {
		t.Fatalf("unicode and ascii forms differ: %q vs %q", a, b)
	}
	if c := MustParse("x == 5"); !Equal(c, Compare{"x", Eq, 5}) {
		t.Fatalf("== parse: %q", c)
	}
	if c := MustParse("x <> 5"); !Equal(c, Compare{"x", Ne, 5}) {
		t.Fatalf("<> parse: %q", c)
	}
}

func TestParsePrecedence(t *testing.T) {
	// "a=1 or b=1 and c=1" must parse as a=1 or (b=1 and c=1).
	e := MustParse("a = 1 or b = 1 and c = 1")
	or, ok := e.(Or)
	if !ok {
		t.Fatalf("top level is %T, want Or", e)
	}
	if _, ok := or.R.(And); !ok {
		t.Fatalf("right of Or is %T, want And", or.R)
	}
	// not binds tighter than and.
	e2 := MustParse("not a = 1 and b = 1")
	and, ok := e2.(And)
	if !ok {
		t.Fatalf("top level is %T, want And", e2)
	}
	if _, ok := and.L.(Not); !ok {
		t.Fatalf("left of And is %T, want Not", and.L)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	e := MustParse("balance < -100")
	if !Equal(e, Compare{"balance", Lt, -100}) {
		t.Fatalf("got %q", e)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"age <",
		"age 30",
		"(age < 30",
		"age < 30)",
		"age < 30 and",
		"and age < 30",
		"age # 30",
		"< 30",
		"age < abc",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse("((")
}

func TestAndAllOrAll(t *testing.T) {
	a := Compare{"x", Lt, 1}
	b := Compare{"y", Gt, 2}
	if e := AndAll(); e != True {
		t.Fatalf("AndAll() = %v", e)
	}
	if e := OrAll(); e != False {
		t.Fatalf("OrAll() = %v", e)
	}
	if e := AndAll(a, True, b); !Equal(e, And{a, b}) {
		t.Fatalf("AndAll skips True: %v", e)
	}
	if e := AndAll(a, False, b); e != False {
		t.Fatalf("AndAll short-circuits False: %v", e)
	}
	if e := OrAll(a, False, b); !Equal(e, Or{a, b}) {
		t.Fatalf("OrAll skips False: %v", e)
	}
	if e := OrAll(a, True); e != True {
		t.Fatalf("OrAll short-circuits True: %v", e)
	}
}

// TestOpNegateAndHolds: each operator holds exactly where its complement
// (¬(a < v) ≡ a >= v, and so on) does not.
func TestOpNegateAndHolds(t *testing.T) {
	pairs := map[Op]Op{Lt: Ge, Le: Gt, Gt: Le, Ge: Lt, Eq: Ne, Ne: Eq}
	for op, negation := range pairs {
		for x := int64(-2); x <= 2; x++ {
			if op.Holds(x, 0) == negation.Holds(x, 0) {
				t.Fatalf("%v and its negation %v agree at %d", op, negation, x)
			}
		}
	}
}
