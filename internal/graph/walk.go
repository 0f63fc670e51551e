package graph

import (
	"fmt"
	"math/rand"
)

// Crawling-based sampling baselines from the paper's related work: BFS
// crawling (Kurant, Markopoulou, Thiran, ITC 2010 — "On the bias of BFS"),
// simple random walks, and the Metropolis–Hastings correction used by
// multigraph sampling work (Gjoka et al.). These operate on the network
// topology only — the access model of a crawler that cannot enumerate the
// population — and are biased toward high-degree nodes, which is exactly why
// the paper's stratified sampling assumes dataset access instead.

// Adjacency is the coauthor graph: Adj[a] lists the distinct coauthors of a.
type Adjacency [][]int

// Adjacency materialises the coauthorship graph's adjacency lists (distinct
// coauthors, no self-loops).
func (g *Coauthorship) Adjacency() Adjacency {
	sets := make([]map[int]struct{}, g.N)
	for _, p := range g.Papers {
		for _, a := range p.Authors {
			for _, b := range p.Authors {
				if a == b {
					continue
				}
				if sets[a] == nil {
					sets[a] = make(map[int]struct{})
				}
				sets[a][b] = struct{}{}
			}
		}
	}
	adj := make(Adjacency, g.N)
	for a, s := range sets {
		for b := range s {
			adj[a] = append(adj[a], b)
		}
	}
	return adj
}

// MeanDegree returns the average degree over all nodes.
func (adj Adjacency) MeanDegree() float64 {
	var sum int
	for _, nbrs := range adj {
		sum += len(nbrs)
	}
	return float64(sum) / float64(len(adj))
}

// BFSSample crawls the graph breadth-first from start and returns the first
// n distinct nodes reached (fewer if the component is smaller). Neighbour
// order is randomised so repeated runs differ. BFS samples are biased toward
// high-degree nodes and toward the seed's community.
func BFSSample(adj Adjacency, start, n int, rng *rand.Rand) ([]int, error) {
	if err := checkWalkArgs(adj, start, n); err != nil {
		return nil, err
	}
	visited := map[int]struct{}{start: {}}
	queue := []int{start}
	out := []int{start}
	for len(queue) > 0 && len(out) < n {
		node := queue[0]
		queue = queue[1:]
		nbrs := append([]int(nil), adj[node]...)
		rng.Shuffle(len(nbrs), func(i, j int) { nbrs[i], nbrs[j] = nbrs[j], nbrs[i] })
		for _, b := range nbrs {
			if _, seen := visited[b]; seen {
				continue
			}
			visited[b] = struct{}{}
			out = append(out, b)
			queue = append(queue, b)
			if len(out) == n {
				break
			}
		}
	}
	return out, nil
}

// RandomWalkSample runs a simple random walk from start, collecting distinct
// visited nodes until n are found or maxSteps transitions happen. Stationary
// visit probability is proportional to degree, so the sample over-represents
// hubs.
func RandomWalkSample(adj Adjacency, start, n, maxSteps int, rng *rand.Rand) ([]int, error) {
	if err := checkWalkArgs(adj, start, n); err != nil {
		return nil, err
	}
	visited := map[int]struct{}{start: {}}
	out := []int{start}
	node := start
	for steps := 0; len(out) < n && steps < maxSteps; steps++ {
		nbrs := adj[node]
		if len(nbrs) == 0 {
			break // dangling node: the walk is stuck
		}
		node = nbrs[rng.Intn(len(nbrs))]
		if _, seen := visited[node]; !seen {
			visited[node] = struct{}{}
			out = append(out, node)
		}
	}
	return out, nil
}

// MetropolisHastingsSample runs a degree-corrected random walk whose
// stationary distribution is uniform over nodes: a move to neighbour b is
// accepted with probability min(1, deg(a)/deg(b)). It removes the degree
// bias at the cost of slower mixing.
func MetropolisHastingsSample(adj Adjacency, start, n, maxSteps int, rng *rand.Rand) ([]int, error) {
	if err := checkWalkArgs(adj, start, n); err != nil {
		return nil, err
	}
	visited := map[int]struct{}{start: {}}
	out := []int{start}
	node := start
	for steps := 0; len(out) < n && steps < maxSteps; steps++ {
		nbrs := adj[node]
		if len(nbrs) == 0 {
			break
		}
		cand := nbrs[rng.Intn(len(nbrs))]
		if rng.Float64() <= float64(len(adj[node]))/float64(len(adj[cand])) {
			node = cand
			if _, seen := visited[node]; !seen {
				visited[node] = struct{}{}
				out = append(out, node)
			}
		}
	}
	return out, nil
}

func checkWalkArgs(adj Adjacency, start, n int) error {
	if start < 0 || start >= len(adj) {
		return fmt.Errorf("graph: start node %d outside [0, %d)", start, len(adj))
	}
	if n < 1 {
		return fmt.Errorf("graph: sample size %d", n)
	}
	return nil
}

// SampleMeanDegree is a convenience for bias measurements: the mean degree
// of the sampled nodes.
func SampleMeanDegree(adj Adjacency, sample []int) float64 {
	if len(sample) == 0 {
		return 0
	}
	var sum int
	for _, a := range sample {
		sum += len(adj[a])
	}
	return float64(sum) / float64(len(sample))
}
