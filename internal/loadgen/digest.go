package loadgen

import "math/bits"

// Digest is an online latency histogram with log-scaled buckets, the
// streaming accumulator behind every taillats quantile. The design centers
// on three properties the fleet runner depends on:
//
//   - Record is allocation-free and branch-cheap (a bits.Len64 and two
//     shifts), so it can sit inside a 10⁷-iteration replay loop.
//   - Merge is a bucket-wise sum, hence associative and commutative: shards
//     can be folded in canonical order regardless of completion order and
//     the result is identical at any -jobs.
//   - Quantile error is bounded by the bucket width: values ≥ 2^subBits
//     land in buckets spanning a 2^-subBits relative range, so any reported
//     quantile is within 1/32 ≈ 3.1% of the true order statistic (values
//     below 2^subBits are exact — one bucket per integer).
//
// Layout: bucket v for v < 2^subBits; above that, each octave [2^e, 2^(e+1))
// splits into 2^subBits sub-buckets indexed by the mantissa bits below the
// leading one. The reported quantile value is the bucket's upper bound,
// biasing estimates high by at most one bucket width — conservative for an
// overhead metric.
type Digest struct {
	count   uint64
	sum     float64
	buckets [nBuckets]uint64
}

const (
	// subBits sets the per-octave resolution: 2^subBits sub-buckets per
	// power of two, i.e. ≤ 2^-subBits relative quantile error.
	subBits = 5
	subMask = 1<<subBits - 1
	// nBuckets covers the full uint64 range: the linear region plus
	// (64-subBits) octaves of 2^subBits sub-buckets each, with one slot of
	// slack for the saturating top bucket.
	nBuckets = (64 - subBits + 1) << subBits
)

// bucketOf maps a non-negative cycle count to its bucket index.
func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	idx := (e+1)<<subBits | int(v>>uint(e))&subMask
	if idx >= nBuckets {
		idx = nBuckets - 1
	}
	return idx
}

// bucketUpper returns the inclusive upper bound of bucket idx, the value
// Quantile reports for mass in that bucket.
func bucketUpper(idx int) float64 {
	if idx < 1<<subBits {
		return float64(idx)
	}
	e := idx>>subBits - 1
	m := idx & subMask
	// Bucket spans [ (2^subBits + m) << e, (2^subBits + m + 1) << e ).
	return float64(uint64(1<<subBits+m+1)<<uint(e) - 1)
}

// Record streams one latency sample into the digest. It performs no
// allocation and no floating-point division — safe for the replay hot loop.
func (d *Digest) Record(cycles float64) {
	v := uint64(0)
	if cycles > 0 {
		v = uint64(cycles)
	}
	d.buckets[bucketOf(v)]++
	d.count++
	d.sum += cycles
}

// Merge folds o into d bucket-wise. Merging is associative and commutative,
// so per-shard digests can be combined in canonical shard order independent
// of which worker finished first.
func (d *Digest) Merge(o *Digest) {
	d.count += o.count
	d.sum += o.sum
	for i, c := range o.buckets {
		if c != 0 {
			d.buckets[i] += c
		}
	}
}

// Count reports the number of recorded samples.
func (d *Digest) Count() uint64 { return d.count }

// Mean reports the exact sample mean (the sum is tracked outside the
// buckets, so the mean carries no quantization error).
func (d *Digest) Mean() float64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / float64(d.count)
}

// Quantile reports the q-th quantile (0 ≤ q ≤ 1) as the upper bound of the
// bucket holding the rank-th smallest sample, where rank is q·count rounded
// to the nearest integer (halves up) and clamped to [1, count]. Relative
// error is bounded by 2^-subBits for values in the log region; exact below
// 2^subBits.
func (d *Digest) Quantile(q float64) float64 {
	if d.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target order statistic, 1-based.
	rank := uint64(q*float64(d.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > d.count {
		rank = d.count
	}
	var seen uint64
	for i, c := range d.buckets {
		seen += c
		if seen >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(nBuckets - 1)
}
