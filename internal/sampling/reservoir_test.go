package sampling

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestReservoirSizeSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewReservoir[int](5, rng)
	for i := 0; i < 3; i++ {
		r.Add(i)
	}
	if len(r.Sample()) != 3 || r.Seen() != 3 {
		t.Fatalf("after 3 adds: sample %d, seen %d", len(r.Sample()), r.Seen())
	}
	for i := 3; i < 100; i++ {
		r.Add(i)
	}
	if len(r.Sample()) != 5 {
		t.Fatalf("sample size %d, want 5", len(r.Sample()))
	}
	if r.Seen() != 100 {
		t.Fatalf("seen %d, want 100", r.Seen())
	}
	seen := map[int]bool{}
	for _, v := range r.Sample() {
		if v < 0 || v >= 100 {
			t.Fatalf("sampled value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("value %d sampled twice", v)
		}
		seen[v] = true
	}
}

func TestReservoirZeroCapacity(t *testing.T) {
	r := NewReservoir[int](0, rand.New(rand.NewSource(1)))
	for i := 0; i < 10; i++ {
		r.Add(i)
	}
	if len(r.Sample()) != 0 {
		t.Fatal("zero-capacity reservoir must stay empty")
	}
}

func TestReservoirPanics(t *testing.T) {
	mustPanic(t, func() { NewReservoir[int](-1, rand.New(rand.NewSource(1))) })
	mustPanic(t, func() { NewReservoir[int](1, nil) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

// TestReservoirUniform: over many runs, each of N items appears in the
// k-sample with frequency k/N; chi-square goodness of fit must not reject.
func TestReservoirUniform(t *testing.T) {
	const n, k, runs = 20, 5, 20000
	rng := rand.New(rand.NewSource(7))
	counts := make([]int64, n)
	for run := 0; run < runs; run++ {
		r := NewReservoir[int](k, rng)
		for i := 0; i < n; i++ {
			r.Add(i)
		}
		for _, v := range r.Sample() {
			counts[v]++
		}
	}
	p, err := stats.ChiSquareUniformP(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("reservoir inclusion not uniform: p = %g, counts = %v", p, counts)
	}
}

// TestReservoirSkipUniform is the Algorithm L counterpart of
// TestReservoirUniform: it streams items through the AddSlice/Skip fast path
// (which consumes whole rejected runs in O(1)) and checks, over well more
// than 10k trials, that per-item inclusion is still uniform at k/N by
// chi-square goodness of fit.
func TestReservoirSkipUniform(t *testing.T) {
	const n, k, runs = 24, 6, 20000
	rng := rand.New(rand.NewSource(19))
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	counts := make([]int64, n)
	for run := 0; run < runs; run++ {
		r := NewReservoir[int](k, rng)
		r.AddSlice(items)
		for _, v := range r.Sample() {
			counts[v]++
		}
	}
	p, err := stats.ChiSquareUniformP(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("skip-path inclusion not uniform: p = %g, counts = %v", p, counts)
	}
}

// TestReservoirAddSliceMatchesAdd: AddSlice must consume the RNG exactly like
// an Add loop, so the two forms produce byte-identical reservoirs for the
// same seed — including when the stream arrives in several chunks.
func TestReservoirAddSliceMatchesAdd(t *testing.T) {
	items := make([]int, 5000)
	for i := range items {
		items[i] = i
	}
	for _, k := range []int{0, 1, 7, 100} {
		a := NewReservoir[int](k, rand.New(rand.NewSource(23)))
		for _, v := range items {
			a.Add(v)
		}
		b := NewReservoir[int](k, rand.New(rand.NewSource(23)))
		b.AddSlice(items[:1500])
		b.AddSlice(items[1500:1501])
		b.AddSlice(items[1501:])
		if a.Seen() != b.Seen() {
			t.Fatalf("k=%d: seen %d vs %d", k, a.Seen(), b.Seen())
		}
		as, bs := a.Sample(), b.Sample()
		if len(as) != len(bs) {
			t.Fatalf("k=%d: sample sizes %d vs %d", k, len(as), len(bs))
		}
		for i := range as {
			if as[i] != bs[i] {
				t.Fatalf("k=%d: sample[%d] = %d vs %d", k, i, as[i], bs[i])
			}
		}
	}
}

// TestReservoirSkipSemantics pins the Skip contract: zero while filling, at
// most the requested count, never past the next acceptance, and a k=0
// reservoir consumes everything.
func TestReservoirSkipSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	r := NewReservoir[int](4, rng)
	if got := r.Skip(10); got != 0 {
		t.Fatalf("Skip while filling returned %d, want 0", got)
	}
	for i := 0; i < 4; i++ {
		r.Add(i)
	}
	var skipped int64
	for pos := int64(4); pos < 10000; {
		s := r.Skip(10000 - pos)
		if s < 0 || s > 10000-pos {
			t.Fatalf("Skip returned %d with %d remaining", s, 10000-pos)
		}
		skipped += s
		pos += s
		if pos == 10000 {
			break
		}
		// Skip stopped short of the request, so this position is accepted.
		r.Add(int(pos))
		pos++
	}
	if r.Seen() != 10000 {
		t.Fatalf("seen %d, want 10000", r.Seen())
	}
	if skipped == 0 {
		t.Fatal("Algorithm L skipped nothing over 10k items")
	}
	if got := r.Skip(0); got != 0 {
		t.Fatal("Skip(0) must return 0")
	}
	if got := r.Skip(-5); got != 0 {
		t.Fatal("Skip(negative) must return 0")
	}
	z := NewReservoir[int](0, rng)
	if got := z.Skip(42); got != 42 || z.Seen() != 42 {
		t.Fatalf("k=0 Skip consumed %d (seen %d), want 42", got, z.Seen())
	}
}

func TestReservoirTakeSampleResets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewReservoir[int](3, rng)
	for i := 0; i < 10; i++ {
		r.Add(i)
	}
	s := r.TakeSample()
	if len(s) != 3 {
		t.Fatalf("TakeSample returned %d items", len(s))
	}
	if r.Seen() != 0 || len(r.Sample()) != 0 {
		t.Fatal("TakeSample must reset the reservoir")
	}
	// Regression: the returned slice must be detached — refilling the
	// reservoir (past the point where Algorithm L's skip state from the
	// previous epoch could suppress replacements) must not alias it, and
	// the second epoch must behave like a fresh reservoir.
	got := append([]int(nil), s...)
	for i := 100; i < 500; i++ {
		r.Add(i)
	}
	for i, v := range s {
		if v != got[i] {
			t.Fatalf("TakeSample slice mutated by later Adds: %v -> %v", got, s)
		}
	}
	if r.Seen() != 400 || len(r.Sample()) != 3 {
		t.Fatalf("second epoch: seen %d sample %d", r.Seen(), len(r.Sample()))
	}
	for _, v := range r.Sample() {
		if v < 100 || v >= 500 {
			t.Fatalf("second-epoch sample holds stale value %d", v)
		}
	}
}

func TestSRSSizeAndDistinctness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := make([]int, 50)
	for i := range items {
		items[i] = i
	}
	s := SRS(items, 10, rng)
	if len(s) != 10 {
		t.Fatalf("SRS returned %d items, want 10", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
	// Oversized and degenerate requests.
	if got := SRS(items, 100, rng); len(got) != 50 {
		t.Fatalf("oversized SRS returned %d", len(got))
	}
	if got := SRS(items, -1, rng); len(got) != 0 {
		t.Fatalf("negative SRS returned %d", len(got))
	}
	// Input must be untouched.
	for i, v := range items {
		if v != i {
			t.Fatal("SRS mutated its input")
		}
	}
}

func TestSRSUniform(t *testing.T) {
	const n, k, runs = 12, 4, 15000
	rng := rand.New(rand.NewSource(11))
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	counts := make([]int64, n)
	for run := 0; run < runs; run++ {
		for _, v := range SRS(items, k, rng) {
			counts[v]++
		}
	}
	p, err := stats.ChiSquareUniformP(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("SRS inclusion not uniform: p = %g", p)
	}
}

// TestQuickSRSIndexes: indexes are distinct and in range for arbitrary
// (total, n).
func TestQuickSRSIndexes(t *testing.T) {
	f := func(seed int64, totalRaw uint16, nRaw uint8) bool {
		total := int64(totalRaw%1000) + 1
		n := int(nRaw) % 50
		rng := rand.New(rand.NewSource(seed))
		idx := SRSIndexes(total, n, rng)
		wantLen := n
		if int64(n) >= total {
			wantLen = int(total)
		}
		if len(idx) != wantLen {
			return false
		}
		seen := map[int64]bool{}
		for _, v := range idx {
			if v < 0 || v >= total || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSRSIndexesUniform(t *testing.T) {
	const total, n, runs = 15, 5, 15000
	rng := rand.New(rand.NewSource(13))
	counts := make([]int64, total)
	for run := 0; run < runs; run++ {
		for _, v := range SRSIndexes(total, n, rng) {
			counts[v]++
		}
	}
	p, err := stats.ChiSquareUniformP(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("SRSIndexes not uniform: p = %g", p)
	}
}

func TestDrawWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	items := []int{1, 2, 3, 4, 5}
	drawn, rest := DrawWithoutReplacement(append([]int(nil), items...), 2, rng)
	if len(drawn) != 2 || len(rest) != 3 {
		t.Fatalf("drawn %d rest %d", len(drawn), len(rest))
	}
	all := append(append([]int(nil), drawn...), rest...)
	seen := map[int]bool{}
	for _, v := range all {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("partition lost items: %v", all)
	}
	drawn, rest = DrawWithoutReplacement([]int{1, 2}, 5, rng)
	if len(drawn) != 2 || rest != nil {
		t.Fatal("over-draw should return everything")
	}
}

// TestDrawWithoutReplacementEverySubsetEqual: the draw is a simple random
// sample, not only first-order fair — over many draws every one of the
// C(n, k) subsets turns up equally often (chi-square at the audit gate), the
// rest is the complement, and drawing everything consumes no randomness.
func TestDrawWithoutReplacementEverySubsetEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, c := range []struct{ n, k, subsets int }{{6, 3, 20}, {5, 1, 5}, {7, 5, 21}, {9, 4, 126}} {
		counts := map[uint]int64{}
		items := make([]int, c.n)
		for trial := 0; trial < 500*c.subsets; trial++ {
			for i := range items {
				items[i] = i
			}
			drawn, rest := DrawWithoutReplacement(items, c.k, rng)
			var in, out uint
			for _, v := range drawn {
				in |= 1 << v
			}
			for _, v := range rest {
				out |= 1 << v
			}
			if len(drawn) != c.k || in^out != 1<<c.n-1 {
				t.Fatalf("n=%d k=%d: drawn %v and rest %v do not partition the items", c.n, c.k, drawn, rest)
			}
			counts[in]++
		}
		if len(counts) != c.subsets {
			t.Fatalf("n=%d k=%d: %d distinct subsets drawn, want all %d", c.n, c.k, len(counts), c.subsets)
		}
		observed := make([]int64, 0, len(counts))
		for _, n := range counts {
			observed = append(observed, n)
		}
		p, err := stats.ChiSquareUniformP(observed)
		if err != nil {
			t.Fatal(err)
		}
		if p < 1e-4 {
			t.Errorf("n=%d k=%d: subsets not equally likely, p = %g", c.n, c.k, p)
		}
	}
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	DrawWithoutReplacement([]int{1, 2, 3}, 3, a)
	if a.Int63() != b.Int63() {
		t.Error("drawing every item consumed randomness")
	}
}

// TestForgetKeepsUniformity is the deletion-correctness proof for dynamic
// sets: fill a reservoir over N members, Forget a fixed set of deleted
// members, and check over many trials that every survivor is included
// equally often. Removing a specific member from a simple random sample
// must leave a simple random sample of the survivors.
func TestForgetKeepsUniformity(t *testing.T) {
	const (
		n      = 40
		k      = 10
		trials = 4000
	)
	deleted := map[int]bool{}
	for _, d := range []int{0, 5, 11, 17, 23, 29, 31, 38} {
		deleted[d] = true
	}
	rng := rand.New(rand.NewSource(42))
	survivors := make([]int, 0, n-len(deleted))
	for v := 0; v < n; v++ {
		if !deleted[v] {
			survivors = append(survivors, v)
		}
	}
	counts := make([]int64, len(survivors))
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir[int](k, rng)
		for v := 0; v < n; v++ {
			r.Add(v)
		}
		for d := range deleted {
			r.Forget(func(v int) bool { return v == d })
		}
		for _, v := range r.Sample() {
			if deleted[v] {
				t.Fatalf("forgotten value %d still sampled", v)
			}
		}
		for i, s := range survivors {
			for _, v := range r.Sample() {
				if v == s {
					counts[i]++
				}
			}
		}
	}
	p, err := stats.ChiSquareUniformP(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("survivor inclusion not uniform after Forget: p = %g, counts %v", p, counts)
	}
}

// TestReadmitCompensationUniform runs the random-pairing loop the live
// package uses — delete marks a hole (d1) or a miss (d2), the next insert
// fills the hole with probability d1/(d1+d2) via Readmit — and checks the
// final sample is uniform over the final membership.
func TestReadmitCompensationUniform(t *testing.T) {
	const (
		n      = 30 // initial members 0..n-1
		k      = 8
		trials = 4000
	)
	rng := rand.New(rand.NewSource(7))
	// Deterministic script: delete 6 of the originals, insert 6 newcomers.
	dels := []int{2, 9, 14, 20, 25, 28}
	inserts := []int{100, 101, 102, 103, 104, 105}
	final := make([]int, 0, n)
	isDel := map[int]bool{}
	for _, d := range dels {
		isDel[d] = true
	}
	for v := 0; v < n; v++ {
		if !isDel[v] {
			final = append(final, v)
		}
	}
	final = append(final, inserts...)
	counts := make([]int64, len(final))
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir[int](k, rng)
		for v := 0; v < n; v++ {
			r.Add(v)
		}
		d1, d2 := 0, 0
		for i, d := range dels {
			if r.Forget(func(v int) bool { return v == d }) {
				d1++
			} else {
				d2++
			}
			// Interleave: one insert after every delete (random pairing).
			ins := inserts[i]
			if d1+d2 > 0 {
				if rng.Intn(d1+d2) < d1 {
					r.Readmit(ins)
					d1--
				} else {
					d2--
				}
			} else {
				r.Add(ins)
			}
		}
		for i, m := range final {
			for _, v := range r.Sample() {
				if v == m {
					counts[i]++
				}
			}
		}
	}
	p, err := stats.ChiSquareUniformP(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("random-pairing sample not uniform: p = %g, counts %v", p, counts)
	}
}

func TestForgetReplaceReadmitSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewReservoir[int](4, rng)
	for v := 1; v <= 4; v++ {
		r.Add(v)
	}
	if r.Forget(func(v int) bool { return v == 99 }) {
		t.Fatal("Forget matched a value not in the sample")
	}
	if !r.Forget(func(v int) bool { return v == 2 }) {
		t.Fatal("Forget missed a sampled value")
	}
	if len(r.Sample()) != 3 {
		t.Fatalf("sample size %d after Forget, want 3", len(r.Sample()))
	}
	if !r.Replace(func(v int) bool { return v == 3 }, 33) {
		t.Fatal("Replace missed a sampled value")
	}
	found := false
	for _, v := range r.Sample() {
		if v == 33 {
			found = true
		}
		if v == 3 || v == 2 {
			t.Fatalf("stale value %d still sampled", v)
		}
	}
	if !found {
		t.Fatal("Replace did not install the new value")
	}
	r.Readmit(5)
	if len(r.Sample()) != 4 {
		t.Fatalf("sample size %d after Readmit, want 4", len(r.Sample()))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Readmit into a full reservoir did not panic")
		}
	}()
	r.Readmit(6)
}
