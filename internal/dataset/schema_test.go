package dataset

import (
	"strings"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Field{Name: "age", Min: 0, Max: 120},
		Field{Name: "income", Min: 0, Max: 1000000},
		Field{Name: "gender", Min: 0, Max: 1},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	_, err := NewSchema(
		Field{Name: "a", Min: 0, Max: 1},
		Field{Name: "a", Min: 0, Max: 2},
	)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate-field error, got %v", err)
	}
}

func TestNewSchemaRejectsEmptyDomain(t *testing.T) {
	_, err := NewSchema(Field{Name: "a", Min: 5, Max: 4})
	if err == nil || !strings.Contains(err.Error(), "empty domain") {
		t.Fatalf("want empty-domain error, got %v", err)
	}
}

func TestNewSchemaRejectsEmptyName(t *testing.T) {
	_, err := NewSchema(Field{Name: "", Min: 0, Max: 1})
	if err == nil {
		t.Fatal("want error for empty field name")
	}
}

func TestSchemaIndexAndField(t *testing.T) {
	s := testSchema(t)
	if n := s.NumFields(); n != 3 {
		t.Fatalf("NumFields = %d, want 3", n)
	}
	i, ok := s.Index("income")
	if !ok || i != 1 {
		t.Fatalf("Index(income) = %d, %v", i, ok)
	}
	if _, ok := s.Index("missing"); ok {
		t.Fatal("Index(missing) should not exist")
	}
	if f := s.Field(2); f.Name != "gender" || f.Max != 1 {
		t.Fatalf("Field(2) = %+v", f)
	}
}

func TestSchemaFieldsReturnsCopy(t *testing.T) {
	s := testSchema(t)
	fs := s.Fields()
	fs[0].Name = "mutated"
	if s.Field(0).Name != "age" {
		t.Fatal("Fields() must return a copy")
	}
}

func TestFieldHelpers(t *testing.T) {
	f := Field{Name: "x", Min: -5, Max: 5}
	if !f.Contains(-5) || !f.Contains(5) || f.Contains(6) || f.Contains(-6) {
		t.Fatal("Contains wrong at boundaries")
	}
	if w := f.Width(); w != 11 {
		t.Fatalf("Width = %d, want 11", w)
	}
}

func TestSchemaString(t *testing.T) {
	s := testSchema(t)
	got := s.String()
	if !strings.Contains(got, "age[0..120]") || !strings.HasPrefix(got, "(") {
		t.Fatalf("String() = %q", got)
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchema should panic on invalid schema")
		}
	}()
	MustSchema(Field{Name: "bad", Min: 1, Max: 0})
}
