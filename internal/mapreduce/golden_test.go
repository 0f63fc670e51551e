package mapreduce

import (
	"bytes"
	"testing"
	"time"
)

// goldenSpanRun executes one traced word-count run with a frozen clock and
// returns the raw JSONL span bytes.
func goldenSpanRun(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	c := NewCluster(3)
	c.Tracer = tr
	c.Clock = FrozenClock(time.Unix(0, 0))
	if _, err := Run(c, wordCountJob(5, true), wcSplits); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenSpanFileDeterminism locks in trace determinism for audit replay:
// with the virtual clock (FrozenClock zeroes every wall measurement, the
// cost model supplies simulated durations) and a fixed job seed, the JSONL
// span file is byte-identical across runs — even with real parallelism,
// because spans are emitted from the engine's serial accounting sections in
// deterministic order.
func TestGoldenSpanFileDeterminism(t *testing.T) {
	first := goldenSpanRun(t)
	if len(first) == 0 {
		t.Fatal("no spans written")
	}
	for i := 0; i < 3; i++ {
		if again := goldenSpanRun(t); !bytes.Equal(first, again) {
			t.Fatalf("span files differ across identical runs:\n--- first\n%s\n--- run %d\n%s", first, i+2, again)
		}
	}
	// The frozen clock must actually have zeroed the wall fields; otherwise
	// the equality above only held by luck.
	if bytes.Contains(first, []byte(`"wall_ns":`)) && !bytes.Contains(first, []byte(`"wall_ns":0`)) {
		// wall_ns has omitempty, so with a frozen clock it should not
		// appear at all.
		t.Fatalf("frozen clock leaked wall time into spans:\n%s", first)
	}
	if !bytes.Contains(first, []byte(`"sim_ns":`)) {
		t.Fatal("spans carry no simulated durations; determinism test is vacuous")
	}
	if bytes.Contains(first, []byte(`"failed":true`)) {
		t.Fatalf("an in-process run reported a failed attempt: nothing can die here\n%s", first)
	}
}
