package dataset

import (
	"bytes"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	r := NewRelation(testSchema(t))
	r.MustAdd(Tuple{ID: 1, Name: "ann", Attrs: []int64{30, 50000, 0}})
	r.MustAdd(Tuple{ID: 2, Name: "bob", Attrs: []int64{40, 60000, 1}})
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("Len = %d", back.Len())
	}
	for i := 0; i < 2; i++ {
		a, b := r.Tuple(i), back.Tuple(i)
		if a.ID != b.ID || a.Name != b.Name {
			t.Fatalf("tuple %d differs: %v vs %v", i, a, b)
		}
		for j := range a.Attrs {
			if a.Attrs[j] != b.Attrs[j] {
				t.Fatalf("tuple %d attr %d differs", i, j)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	schema := testSchema(t)
	cases := []string{
		"",                                                // empty
		"x,name,age,income,gender\n",                      // wrong first column
		"id,name,age,wrong,gender\n",                      // wrong attr name
		"id,name,age,income,gender\nzz,a,1,1,0",           // bad id
		"id,name,age,income,gender\n1,a,x,1,0",            // bad attr
		"id,name,age,income,gender\n1,a,999,1,0",          // out of domain
		"id,name,age,income,gender\n1,a,1,1,0\n1,b,2,2,1", // dup id
	}
	for _, src := range cases {
		if _, err := ReadCSV(strings.NewReader(src), schema); err == nil {
			t.Errorf("ReadCSV(%q) should fail", src)
		}
	}
}

func TestReadCSVRejectsWrongArity(t *testing.T) {
	schema := testSchema(t)
	src := "id,name,age,income,gender\n1,a,1,1\n"
	if _, err := ReadCSV(strings.NewReader(src), schema); err == nil {
		t.Fatal("want arity error")
	}
}

// TestReadCSVNamesTheDuplicateLine: a repeated id is refused with its line
// and id, whether the ids ascended up to it or an earlier line broke their
// order.
func TestReadCSVNamesTheDuplicateLine(t *testing.T) {
	schema := testSchema(t)
	for _, tc := range []struct{ src, want string }{
		{"id,name,age,income,gender\n1,a,1,1,0\n1,b,2,2,1", "dataset: CSV line 3: dataset: duplicate tuple id 1"},
		{"id,name,age,income,gender\n1,a,1,1,0\n5,b,2,2,1\n3,c,1,1,0\n1,d,1,1,0", "dataset: CSV line 5: dataset: duplicate tuple id 1"},
	} {
		if _, err := ReadCSV(strings.NewReader(tc.src), schema); err == nil || err.Error() != tc.want {
			t.Errorf("ReadCSV(%q): err %v, want %q", tc.src, err, tc.want)
		}
	}
}
