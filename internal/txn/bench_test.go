package txn

import (
	"fmt"
	"strconv"
	"testing"
)

// benchKeys is the warm key population the keyspace benches draw from.
const benchKeys = 1024

// maxTxnOps mirrors the server's MaxTxnOps: the largest Op list a served
// EXEC can hand to Exec.
const maxTxnOps = 128

// warmTL2 returns a TL2 keyspace whose benchKeys keys all exist, so the
// timed loop measures commits, not directory inserts.
func warmTL2(tb testing.TB) (Keyspace, []string) {
	tb.Helper()
	ks, err := New("tl2", "aggressive")
	if err != nil {
		tb.Fatal(err)
	}
	keys := make([]string, benchKeys)
	for i := range keys {
		keys[i] = "acct:" + strconv.Itoa(i)
		ks.Set(keys[i], 0)
	}
	return ks, keys
}

// BenchmarkKeyspaceExec commits size-op Incr transactions over distinct
// warm keys: size 2 is the served transfer, MaxTxnOps the largest EXEC
// (it would expose a write-set lookup that grows quadratically).
func BenchmarkKeyspaceExec(b *testing.B) {
	for _, size := range []int{2, maxTxnOps} {
		b.Run(fmt.Sprintf("ops=%d", size), func(b *testing.B) {
			ks, keys := warmTL2(b)
			ops := make([]Op, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range ops {
					ops[j] = Op{Kind: Incr, Key: keys[(i*size+j)%benchKeys], Val: 1}
				}
				ks.Exec(ops)
			}
		})
	}
}

// BenchmarkKeyspaceIncr is the single-key fast path (HINCR outside MULTI).
func BenchmarkKeyspaceIncr(b *testing.B) {
	ks, keys := warmTL2(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ks.Incr(keys[i%benchKeys], 1)
	}
}
