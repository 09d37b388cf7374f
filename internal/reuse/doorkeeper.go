package reuse

// doorSlots is the doorkeeper's size: 32 KiB per cache. A repeated key is
// admitted unless a key that missed between its two sightings took its
// slot.
const doorSlots = 1 << 12

// doorkeeper remembers the keys that missed recently, one 64-bit hash per
// direct-mapped slot, so a cache admits a key on its second miss and not
// its first: TinyLFU's doorkeeper (Einziger et al., ACM ToS 2017), with a
// slot overwritten by a colliding key instead of a Bloom filter reset. It
// is fixed-size and belongs to the cache, so it is neither charged to the
// memory limit nor configured. The zero value is empty.
type doorkeeper [doorSlots]uint64

// seen records key and reports whether it was already in its slot.
func (d *doorkeeper) seen(key string) bool {
	h := fnv1a(key)
	slot := &d[h%doorSlots]
	tag := h | 1 // 0 marks an empty slot
	if *slot == tag {
		return true
	}
	*slot = tag
	return false
}

// fnv1a is the 64-bit FNV-1a hash: deterministic across runs, so which
// keys collide, and so what a run caches, repeats.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
