package predicate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

// matchesBoxes is the semantics of a box set: some box contains the tuple.
func matchesBoxes(boxes []map[string]Interval, schema *dataset.Schema, tp *dataset.Tuple) bool {
	for _, b := range boxes {
		ok := true
		for attr, iv := range b {
			idx, _ := schema.Index(attr)
			if v := tp.Attrs[idx]; v < iv.Lo || v > iv.Hi {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestQuickBoxesEquivalentToEval: the cells Boxes returns for a random
// formula hold exactly the tuples the formula matches.
func TestQuickBoxesEquivalentToEval(t *testing.T) {
	schema := predSchema()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 4)
		boxes, err := Boxes(e, schema)
		if err != nil {
			return false
		}
		for i := 0; i < 30; i++ {
			tp := randomTuple(rng)
			want, err := Eval(e, schema, &tp)
			if err != nil {
				return false
			}
			if matchesBoxes(boxes, schema, &tp) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxesClipToDomain(t *testing.T) {
	schema := predSchema()
	for _, tc := range []struct {
		src  string
		want []map[string]Interval
	}{
		{"a > 1000", nil},                     // outside [0,100]: unsatisfiable
		{"a >= 0", []map[string]Interval{{}}}, // the whole domain: unconstrained
		{"a < 50 or a > 1000", []map[string]Interval{{"a": {0, 49}}}},
	} {
		boxes, err := Boxes(MustParse(tc.src), schema)
		if err != nil {
			t.Fatal(err)
		}
		if len(boxes) != len(tc.want) {
			t.Fatalf("%s: %d boxes %v, want %v", tc.src, len(boxes), boxes, tc.want)
		}
		for i, b := range boxes {
			if len(b) != len(tc.want[i]) || (len(b) > 0 && b["a"] != tc.want[i]["a"]) {
				t.Errorf("%s: box %d is %v, want %v", tc.src, i, b, tc.want[i])
			}
		}
	}
}
