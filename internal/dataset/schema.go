// Package dataset defines the population model shared by all other packages:
// a schema of integer-valued attributes, tuples representing individuals of a
// social network, relations holding tuples, and helpers for partitioning a
// relation into the splits a distributed system would store on different
// machines.
//
// Following Section 3.1 of the paper, a dataset is a set of individuals over
// a schema S = (P1..Pn) with finite integer domains. Attributes may derive
// from network structure (e.g. the number of coauthors of an individual).
package dataset

import (
	"fmt"
	"strings"
)

// Field describes a single attribute of the population schema: its name, its
// inclusive integer domain [Min, Max], and a human-readable description.
type Field struct {
	Name string
	Min  int64
	Max  int64
	Desc string
}

// Validate reports an error if the field is malformed.
func (f Field) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("dataset: field with empty name")
	}
	if f.Min > f.Max {
		return fmt.Errorf("dataset: field %q has empty domain [%d, %d]", f.Name, f.Min, f.Max)
	}
	return nil
}

// Contains reports whether v lies in the field's domain.
func (f Field) Contains(v int64) bool { return v >= f.Min && v <= f.Max }

// Width returns the number of values in the field's domain.
func (f Field) Width() int64 { return f.Max - f.Min + 1 }

// Schema is an ordered collection of uniquely named fields. The zero value is
// an empty schema; use NewSchema to build one.
type Schema struct {
	fields []Field
	index  map[string]int
}

// NewSchema builds a schema from the given fields. It returns an error when a
// field is malformed or a name repeats.
func NewSchema(fields ...Field) (*Schema, error) {
	s := &Schema{
		fields: make([]Field, len(fields)),
		index:  make(map[string]int, len(fields)),
	}
	copy(s.fields, fields)
	for i, f := range fields {
		if err := f.Validate(); err != nil {
			return nil, err
		}
		if _, dup := s.index[f.Name]; dup {
			return nil, fmt.Errorf("dataset: duplicate field %q", f.Name)
		}
		s.index[f.Name] = i
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error. It is intended for
// statically known schemas in tests and examples.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumFields returns the number of attributes in the schema.
func (s *Schema) NumFields() int { return len(s.fields) }

// Field returns the i-th field. It panics if i is out of range.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of the schema's fields in order.
func (s *Schema) Fields() []Field {
	out := make([]Field, len(s.fields))
	copy(out, s.fields)
	return out
}

// Index returns the position of the named field and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// String renders the schema as "(name[min..max], ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s[%d..%d]", f.Name, f.Min, f.Max)
	}
	b.WriteByte(')')
	return b.String()
}
