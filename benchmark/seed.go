package main

import "fmt"

// rng is a splitmix64 stream: the only source of seeded choice in the
// benchmark. The programs under test never see it, only the refs and
// cells derived from it.
type rng struct{ x uint64 }

func (r *rng) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a float in [0, 1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

// perm returns a seeded permutation of 0..n-1 (Fisher-Yates).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// synthRefs derives the four held-out synthetic programs of a seed.
//
// Each dial is stratified into four bands and every program takes one
// band of each, in a seeded pairing, so every seed spans the whole dial
// space (and costs about the same to simulate) while no two seeds run
// the same programs:
//
//	mlp      one each of 1, 2, 4, 8
//	miss     one draw from each quarter of [0.02, 0.30]
//	entropy  one draw from each quarter of [0, 1]
//	ws       one each of {64K|128K}, {256K|512K}, {1M|2M}, {4M|8M|16M}
//	seed     four distinct program seeds
//
// Neither the sampling plan nor the interval model was tuned on synth
// programs, which makes them the held-out set for the accuracy metrics.
func synthRefs(seed, n uint64) []string {
	r := &rng{x: seed}
	mlp := []int{1, 2, 4, 8}
	ws := [][]string{{"64k", "128k"}, {"256k", "512k"}, {"1m", "2m"}, {"4m", "8m", "16m"}}
	mlpBand, missBand, entBand, wsBand := r.perm(4), r.perm(4), r.perm(4), r.perm(4)
	refs := make([]string, 4)
	for i := range refs {
		miss := 0.02 + 0.07*(float64(missBand[i])+r.unit())
		ent := 0.25 * (float64(entBand[i]) + r.unit())
		band := ws[wsBand[i]]
		refs[i] = fmt.Sprintf("synth:mlp=%d,miss=%.3f,entropy=%.3f,ws=%s,n=%d,seed=%d",
			mlp[mlpBand[i]], miss, ent, band[r.next()%uint64(len(band))], n, 1+r.next()%(1<<32))
	}
	return refs
}
