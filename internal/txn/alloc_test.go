//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// counts are only stable without it.

package txn

import "testing"

// TestTL2Allocs pins the TL2 keyspace's allocations on a warm keyspace:
// the pooled descriptor and its reused read/write sets cost nothing, so
// what remains is one fresh value per written key (a published value is
// never reused) plus, for Exec, the results slice.
func TestTL2Allocs(t *testing.T) {
	ks, keys := warmTL2(t)
	transfer := []Op{
		{Kind: Incr, Key: keys[1], Val: 5},
		{Kind: Incr, Key: keys[2], Val: -5},
	}
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Exec/two-key transfer", 3, func() { ks.Exec(transfer) }},
		{"Incr", 1, func() { ks.Incr(keys[3], 1) }},
		{"Set", 1, func() { ks.Set(keys[4], 7) }},
		{"Inc", 1, func() { ks.Inc() }},
	} {
		if got := testing.AllocsPerRun(200, c.f); got > c.max {
			t.Errorf("%s: %v allocs/op, want ≤ %v", c.name, got, c.max)
		}
	}
}
