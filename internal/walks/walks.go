// Package walks implements anonymous random walks (Ivanov & Burnaev, ICML
// 2018) and the per-node empirical walk-type distributions of the paper's
// structural view (eqs. 3-4). A walk's anonymization replaces node
// identities with first-occurrence indices, so walks describe pure local
// structure; the distribution of anonymous walk types around a node is a
// structural signature that separates patterns like stencils (chains) from
// reductions (stars with a carried hub).
package walks

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"mvpar/internal/graph"
	"mvpar/internal/obs"
	"mvpar/internal/tensor"
)

// Anonymize maps each node of the walk to the index of its first
// occurrence: (v3, v9, v3, v7) becomes (0, 1, 0, 2). Consecutive
// duplicates (a walk parked on an isolated node) are compressed first, so
// the result is always a legal anonymous walk of possibly shorter length.
func Anonymize(walk []int) []int {
	if len(walk) == 0 {
		return nil
	}
	compressed := make([]int, 0, len(walk))
	for i, v := range walk {
		if i == 0 || v != walk[i-1] {
			compressed = append(compressed, v)
		}
	}
	next := 0
	ids := map[int]int{}
	out := make([]int, len(compressed))
	for i, v := range compressed {
		id, ok := ids[v]
		if !ok {
			id = next
			ids[v] = id
			next++
		}
		out[i] = id
	}
	return out
}

// Space is the enumeration of all anonymous walk types up to a maximum
// length (number of edges). Every sampled walk maps to exactly one type.
type Space struct {
	MaxLen int
	types  map[string]int
	list   [][]int
}

// NewSpace enumerates every anonymous walk with 0..maxLen edges.
// Type counts follow the Bell-like recurrence (1, 1, 2, 5, 15, 52, ... per
// exact length); maxLen up to 7 stays comfortably small.
func NewSpace(maxLen int) *Space {
	if maxLen < 1 || maxLen > 9 {
		panic(fmt.Sprintf("walks: NewSpace(%d): length must be in [1, 9]", maxLen))
	}
	s := &Space{MaxLen: maxLen, types: map[string]int{}}
	var gen func(cur []int, maxID int)
	add := func(cur []int) {
		key := keyOf(cur)
		if _, ok := s.types[key]; !ok {
			s.types[key] = len(s.list)
			s.list = append(s.list, append([]int(nil), cur...))
		}
	}
	gen = func(cur []int, maxID int) {
		add(cur)
		if len(cur) > maxLen { // len(cur) nodes = len(cur)-1 edges
			return
		}
		last := cur[len(cur)-1]
		for next := 0; next <= maxID+1; next++ {
			if next == last {
				continue
			}
			nm := maxID
			if next > maxID {
				nm = next
			}
			gen(append(cur, next), nm)
		}
	}
	gen([]int{0}, 0)
	return s
}

func keyOf(aw []int) string {
	parts := make([]string, len(aw))
	for i, v := range aw {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// NumTypes returns the number of anonymous walk types in the space.
func (s *Space) NumTypes() int { return len(s.list) }

// Type returns the canonical anonymous walk for a type index.
func (s *Space) Type(i int) []int { return s.list[i] }

// IndexOf returns the type index of an anonymous walk. Walks longer than
// MaxLen edges are truncated to MaxLen before lookup.
func (s *Space) IndexOf(aw []int) (int, bool) {
	if len(aw) > s.MaxLen+1 {
		aw = aw[:s.MaxLen+1]
	}
	i, ok := s.types[keyOf(aw)]
	return i, ok
}

// Params configures walk sampling: Gamma walks of Length edges per node
// (the paper's γ and l). MaxSamples, when positive, caps the total number
// of walks sampled per graph (NumNodes × Gamma); graphs whose sampling
// would exceed it fail with ErrBudget so callers can degrade to the
// node-feature view instead of stalling on a pathological sub-PEG.
type Params struct {
	Length     int
	Gamma      int
	MaxSamples int64
}

// ErrBudget is returned by NodeDistributionsBudget when sampling a graph
// would exceed Params.MaxSamples.
var ErrBudget = errors.New("walks: sample budget exceeded")

// DefaultParams mirrors the scale used in the paper's references: walks of
// length 5 with 32 samples per node.
var DefaultParams = Params{Length: 5, Gamma: 32}

// NodeDistributions samples Gamma anonymous walks of the given length from
// every node of g and returns the N x NumTypes matrix of empirical
// distributions p̂(ω|v) (eq. 3). Rows sum to 1 for non-empty graphs.
// Params.MaxSamples is ignored here; use NodeDistributionsBudget to
// enforce it.
func (s *Space) NodeDistributions(g *graph.Directed, p Params, rng *rand.Rand) *tensor.Matrix {
	m, _ := s.nodeDistributions(g, p, rng, false)
	return m
}

// NodeDistributionsBudget is NodeDistributions with the sampling budget
// enforced: when p.MaxSamples > 0 and the graph needs more than that many
// walks, it returns ErrBudget without sampling.
func (s *Space) NodeDistributionsBudget(g *graph.Directed, p Params, rng *rand.Rand) (*tensor.Matrix, error) {
	return s.nodeDistributions(g, p, rng, true)
}

func (s *Space) nodeDistributions(g *graph.Directed, p Params, rng *rand.Rand, budgeted bool) (*tensor.Matrix, error) {
	_, sp := obs.StartSpan(context.TODO(), "walks.sample")
	defer sp.End()
	n := g.NumNodes()
	out := tensor.New(n, s.NumTypes())
	if p.Gamma <= 0 {
		return out, nil
	}
	if budgeted && p.MaxSamples > 0 && int64(n)*int64(p.Gamma) > p.MaxSamples {
		obs.GetCounter("mvpar_walks_budget_exceeded_total").Inc()
		return nil, fmt.Errorf("%w: %d nodes x %d walks > %d",
			ErrBudget, n, p.Gamma, p.MaxSamples)
	}
	obs.GetCounter("mvpar_walks_sampled_total").Add(int64(n) * int64(p.Gamma))
	inv := 1.0 / float64(p.Gamma)
	for v := 0; v < n; v++ {
		row := out.Row(v)
		for k := 0; k < p.Gamma; k++ {
			w := g.RandomWalk(v, p.Length, rng)
			idx, ok := s.IndexOf(Anonymize(w))
			if !ok {
				// Unreachable by construction: every anonymized sample of
				// length <= MaxLen is enumerated.
				continue
			}
			row[idx] += inv
		}
	}
	return out, nil
}

// GraphDistribution averages the node distributions into the graph-level
// distribution p̂(ω|G) (eq. 4), returned as a 1 x NumTypes matrix.
func (s *Space) GraphDistribution(nodeDist *tensor.Matrix) *tensor.Matrix {
	return tensor.MeanRow(nodeDist)
}

// SampleBound returns the number of walk samples per node that suffices
// for the empirical anonymous-walk distribution to be within eps of the
// true distribution with probability 1-delta (Ivanov & Burnaev, eq. 6):
//
//	m >= ceil( (2/eps^2) * (ln(2^eta - 2) - ln(delta)) )
//
// where eta is the number of walk types. It quantifies the paper's choice
// of γ: small graphs need surprisingly few samples.
func (s *Space) SampleBound(eps, delta float64) int {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("walks: SampleBound(eps=%v, delta=%v) out of range", eps, delta))
	}
	eta := float64(s.NumTypes())
	// ln(2^eta - 2) = eta*ln2 + ln(1 - 2^(1-eta)), finite for large eta.
	ln2eta := eta*math.Ln2 + math.Log1p(-math.Pow(2, 1-eta))
	m := (2 / (eps * eps)) * (ln2eta - math.Log(delta))
	return int(math.Ceil(m))
}
