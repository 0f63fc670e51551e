package stats

import "math"

// HypergeometricPMF returns P(Y = y) for a hypergeometric law: drawing x
// items without replacement from a population of r items of which c are
// marked, y of the drawn being marked. This is the distribution Remark 1 of
// the paper derives for the sampled tuples found in a prefix of a
// sub-relation:
//
//	P(y) = C(c, y) · C(r−c, x−y) / C(r, x)
func HypergeometricPMF(r, c, x, y int64) float64 {
	if y < 0 || y > c || x-y < 0 || x-y > r-c || x > r {
		return 0
	}
	return math.Exp(lnChoose(c, y) + lnChoose(r-c, x-y) - lnChoose(r, x))
}

// lnChoose returns ln C(n, k).
func lnChoose(n, k int64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	ln2, _ := math.Lgamma(float64(k + 1))
	ln3, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - ln2 - ln3
}
