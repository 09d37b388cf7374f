package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs.
// It refuses when fewer than minBeyond samples lie beyond the rank: a tail
// percentile resting on a handful of samples is noise, not a measurement.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g out of range", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	beyond := len(sorted) - rank
	if rank < 1 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, len(sorted), beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// median returns the middle value of xs (mean of the middle two when even),
// or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	m := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[m]
	}
	return (sorted[m-1] + sorted[m]) / 2
}

// spread returns the two dispersion measures of the A/A table, both as a
// share of the median: the distance between the first and third quartile,
// computed as Python's statistics.quantiles(xs, n=4) does because that is
// what the driver gates on, and the full range. It needs two samples.
func spread(xs []float64) (iqr, span float64) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	med := median(sorted)
	return (quartile(3) - quartile(1)) / med, (sorted[n-1] - sorted[0]) / med
}

// calibThreads is how many copies of the calibration kernel run at once:
// one per core of the 2-core hosts the benchmark is sized for.
const calibThreads = 2

// calibBufs are the kernel's memory working sets, each larger than any cache
// the harness can count on.
var calibBufs = func() (bufs [calibThreads][]uint64) {
	for i := range bufs {
		bufs[i] = make([]uint64, 4<<20)
	}
	return bufs
}()

// calibKernel times the fixed CPU-and-memory kernel once: on every core at
// once, a register xorshift chain and then a read-modify-write sweep of
// 32 MB. It returns the mean time per core in milliseconds.
func calibKernel() float64 {
	var wg sync.WaitGroup
	var took [calibThreads]time.Duration
	for t := range took {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			x := uint64(88172645463325252)
			for i := 0; i < 12_000_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			for pass := 0; pass < 2; pass++ {
				for i := range calibBufs[t] {
					calibBufs[t][i] += x
				}
			}
			took[t] = time.Since(start)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range took {
		sum += d
	}
	return float64(sum.Nanoseconds()) / calibThreads / 1e6
}

// hostCalib is the host's speed on the calibration kernel: the median of
// three passes after one that is thrown away. It is taken while the daemons
// are idle, and always after seconds of load (a set-up, the timed phase),
// because a host that has just been idle runs the kernel at half speed for
// up to a second.
func hostCalib() float64 {
	// A collection left over from the run must not share the kernel's cores.
	runtime.GC()
	calibKernel()
	return median([]float64{calibKernel(), calibKernel(), calibKernel()})
}

// calibRefMS is the kernel's time on the 2-core 2.1 GHz Xeon microVM the
// baseline was taken on, in a quiet hour. It only anchors the unit: a
// reported millisecond is a millisecond on that host.
const calibRefMS = 34.0

// slowdown is how many times slower than the reference host this host ran
// during one run: the median of the run's calibration readings (one after
// every set-up, one after the timed phase) over calibRefMS. The median,
// because one reading in a few dozen catches the host at half speed. The
// hosts this runs on are shared, and as neighbours come and go the clock's
// medians of unchanged code move by 13–43 % within the hour, more than any
// bound the driver accepts; the kernel moves with them. Every time-based
// end-to-end metric of the run is divided by this one factor (README, "The
// host").
func slowdown(calibs []float64) float64 { return median(calibs) / calibRefMS }

// disturbedPct is the before/after calibration drift that marks a result.
const disturbedPct = 5.0

func disturbed(before, after float64) bool {
	return math.Abs(after-before)/before*100 > disturbedPct
}

// rowHash is an FNV-1a hash of one result row's native values. Row hashes
// are summed, so a result's checksum does not depend on row order: a scatter
// may gather its legs in any order. Floats are hashed at float32 precision
// (see floatBits), everything else exactly.
type rowHash uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (h *rowHash) byte(b byte) { *h = (*h ^ rowHash(b)) * fnvPrime }

func (h *rowHash) u64(v uint64) {
	for s := 0; s < 64; s += 8 {
		h.byte(byte(v >> s))
	}
}

// hashRow hashes the values a client cursor returns (int64, float64, string,
// bool, time.Time, nil), each tagged with its kind.
func hashRow(row []any) uint64 {
	h := rowHash(fnvOffset)
	for _, v := range row {
		switch x := v.(type) {
		case nil:
			h.byte(0)
		case int64:
			h.byte(1)
			h.u64(uint64(x))
		case float64:
			h.byte(2)
			h.u64(floatBits(x))
		case string:
			h.byte(3)
			for i := 0; i < len(x); i++ {
				h.byte(x[i])
			}
			h.byte(0xff)
		case bool:
			h.byte(4)
			if x {
				h.byte(1)
			} else {
				h.byte(0)
			}
		case time.Time:
			h.byte(5)
			h.u64(uint64(x.Unix()))
		default:
			h.byte(6)
			s := fmt.Sprint(x)
			for i := 0; i < len(s); i++ {
				h.byte(s[i])
			}
		}
	}
	return uint64(h)
}

// floatBits keeps a float's sign, exponent and top 24 mantissa bits. A sum
// gathered from three shards' partial sums differs from the single-node sum
// in its last few bits; both must hash alike, and a relative difference of
// 6e-8 is far more than reassociation produces and far less than a wrong
// answer would.
func floatBits(x float64) uint64 { return math.Float64bits(x) &^ (1<<28 - 1) }

// answer is what an op returned: its row count and order-free checksum.
type answer struct {
	rows uint64
	sum  uint64
}
