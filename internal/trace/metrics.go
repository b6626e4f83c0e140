package trace

import (
	"math/bits"
	"sort"
)

// NumBuckets is the number of log2 histogram buckets: bucket 0 counts
// the value 0, bucket i (i >= 1) counts values in [2^(i-1), 2^i - 1].
const NumBuckets = 65

// Histogram is a log2-scaled latency histogram. The zero value is
// ready to use.
type Histogram struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	Sum     uint64
	Min     uint64
	Max     uint64
}

// BucketIndex returns the bucket a value falls into.
func BucketIndex(v uint64) int { return bits.Len64(v) }

// BucketBounds returns the inclusive [lo, hi] range of bucket i.
func BucketBounds(i int) (lo, hi uint64) {
	if i <= 0 {
		return 0, 0
	}
	return uint64(1) << uint(i-1), uint64(1)<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.Buckets[BucketIndex(v)]++ // sanitized: bits.Len64 is at most 64, and there are NumBuckets = 65 buckets
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
}

// Mean returns the average observed value (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// CounterSet is a collection of named counters kept in sorted name
// order, so serialization never iterates a map. The zero value is
// ready to use.
type CounterSet struct {
	names  []string
	values []uint64
}

// Add adds n to the named counter, creating it at its sorted position
// on first use.
func (c *CounterSet) Add(name string, n uint64) {
	i := sort.SearchStrings(c.names, name)
	if i < len(c.names) && c.names[i] == name {
		c.values[i] += n
		return
	}
	c.names = append(c.names, "")
	copy(c.names[i+1:], c.names[i:])
	c.names[i] = name
	c.values = append(c.values, 0)
	copy(c.values[i+1:], c.values[i:])
	c.values[i] = n
}

// Get returns the named counter's value (0 if absent).
func (c *CounterSet) Get(name string) uint64 {
	i := sort.SearchStrings(c.names, name)
	if i < len(c.names) && c.names[i] == name {
		return c.values[i]
	}
	return 0
}

// Each calls f for every counter in name order.
func (c *CounterSet) Each(f func(name string, value uint64)) {
	for i, name := range c.names {
		f(name, c.values[i])
	}
}

// Len returns the number of distinct counters.
func (c *CounterSet) Len() int { return len(c.names) }
