package mapreduce_test

import (
	"testing"

	"repro/internal/mapreduce"
	_ "repro/internal/stratified" // registers the production makers and codecs
)

// TestEveryMakerHasCodecs: there is no fallback encoding, so every job a
// worker can be asked to run — the paper's three and this package's test
// jobs — must have a codec for its split, shuffle pair and output types.
func TestEveryMakerHasCodecs(t *testing.T) {
	for name, err := range mapreduce.MakerCodecErrors() {
		if err != nil {
			t.Errorf("maker %q: %v", name, err)
		}
	}
}
