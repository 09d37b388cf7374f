package main

// schedule is a workload's op sequence as a pure function of (seed, index):
// the same seed replays the same ops, so the result of op i repeats exactly
// from run to run. The seed moves only the order of classes inside each
// block, where each class starts in its variant cycle, and the sentinel
// literals; shares, variants and data never change.
type schedule struct {
	w    workload
	seed uint64
	// offsets rotates each class's variant cycle by a seeded amount.
	offsets []int

	// block caches the most recently built block.
	blockNo int
	block   []op
}

func newSchedule(w workload, seed uint64) *schedule {
	s := &schedule{w: w, seed: seed, blockNo: -1}
	r := splitmix(seed)
	for range w.classes {
		s.offsets = append(s.offsets, int(r.next()%1000))
	}
	return s
}

// at returns op i. Access is cheapest in index order.
func (s *schedule) at(i int) op {
	if b := i / blockLen; b != s.blockNo {
		s.block, s.blockNo = s.build(b), b
	}
	return s.block[i%blockLen]
}

// build lays out block b: a seeded shuffle of the class multiset, each slot
// filled by its class's generator with the class's running occurrence count.
func (s *schedule) build(b int) []op {
	order := make([]int, 0, blockLen)
	for ci, c := range s.w.classes {
		for k := 0; k < c.share; k++ {
			order = append(order, ci)
		}
	}
	r := splitmix(s.seed ^ (uint64(b)+1)*0x9e3779b97f4a7c15)
	for i := len(order) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	seen := make([]int, len(s.w.classes))
	ops := make([]op, blockLen)
	for p, ci := range order {
		c := s.w.classes[ci]
		n := b*c.share + seen[ci] + s.offsets[ci]
		seen[ci]++
		// The sentinel is unique per index and differs across seeds.
		o := c.gen(n, int64(s.seed%1000)*10_000_000+int64(b*blockLen+p)+1)
		o.class = ci
		ops[p] = o
	}
	return ops
}

// rng is splitmix64: tiny, seedable, and identical on every Go version.
type rng struct{ x uint64 }

func splitmix(seed uint64) *rng { return &rng{x: seed} }

func (r *rng) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
