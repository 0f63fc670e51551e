package predicate

import "repro/internal/dataset"

// interval is an inclusive integer range [Lo, Hi], a cell's extent on one
// attribute.
type interval struct {
	Lo, Hi int64
}

// Boxes returns the cells of the formula's grid on which it holds, each as a
// map from tested attribute to the cell's interval on it (an attribute not in
// the map is unconstrained). None means the formula is unsatisfiable over the
// schema's domains. Its one caller is the bench harness's predicate.boxes_us
// probe, which times the lowering through it.
func Boxes(e Expr, schema *dataset.Schema) ([]map[string]interval, error) {
	c, err := NewClassifier([]Expr{e}, schema)
	if err != nil {
		return nil, err
	}
	lo, hi, at := c.cellRange()
	var boxes []map[string]interval
	c.eachCell(lo, hi, at, func(off int32, at []int32) bool {
		if c.table[off] < 0 {
			return true
		}
		box := make(map[string]interval, len(c.dims))
		for d, dim := range c.dims {
			f := schema.Field(dim.attr)
			iv := interval{f.Min, f.Max}
			if i := at[d]; i > 0 {
				iv.Lo = dim.below[i-1] + 1
			}
			if i := int(at[d]); i < len(dim.below) {
				iv.Hi = dim.below[i]
			}
			box[f.Name] = iv
		}
		boxes = append(boxes, box)
		return true
	})
	return boxes, nil
}
