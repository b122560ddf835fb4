package server

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAmortizedClockObservations pins the amortized-clock contract with
// an injected fake clock: applying a batch reads the wall clock only every
// clockEvery executed commands, so an observation may be stale, but
// never by more than one refresh interval — every op lands in a bucket
// within one clock tick of the truth.
//
// The batch alternates SET and PUSH so every command is its own same-op
// span (64 spans of one command each). The fake clock ticks exactly once,
// by step, between the submit stamp and the apply. The first clockEvery
// observations therefore read the pre-tick clock (latency 0) and the
// rest read the refreshed clock (latency step) — nothing in between,
// nothing beyond, and the refresh provably fires mid-batch.
func TestAmortizedClockObservations(t *testing.T) {
	var nanos atomic.Int64
	base := time.Unix(1000, 0)
	o := Options{Shards: 1}
	o.clock = func() time.Time { return base.Add(time.Duration(nanos.Load())) }
	e, err := newEngine(o.withDefaults())
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	defer e.stop()

	const (
		n    = 2 * clockEvery // spans refreshing exactly once mid-batch
		step = 8 * time.Millisecond
	)
	b := getBatch()
	defer putBatch(b)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			b.cmds = append(b.cmds, Command{Op: OpSet, Arg: int64(1000 + i)})
		} else {
			b.cmds = append(b.cmds, Command{Op: OpPush, Arg: int64(i)})
		}
	}
	b.start = e.refreshCoarse()
	nanos.Add(int64(step)) // the one tick: all n commands truly take step

	replies, ok := e.doBatch(e.router.Load(), 0, b)
	if !ok {
		t.Fatal("doBatch aborted")
	}
	if len(replies) != n {
		t.Fatalf("got %d replies, want %d", len(replies), n)
	}

	// The refresh fires at the clockEvery-th command, before that span's
	// observation: spans 1..31 read the stale clock (latency 0), spans
	// 32..64 the fresh one (latency step). With SET on even spans that is
	// 16 stale SETs and 15 stale PUSHes; the sums are exact because the
	// fake clock moves only when the test says so.
	for name, zeros := range map[string]int64{"set.add": clockEvery / 2, "stack.push": clockEvery/2 - 1} {
		found := false
		for _, s := range e.metrics.Snapshot() {
			if s.Name != name {
				continue
			}
			found = true
			if s.Count != n/2 {
				t.Errorf("%s count = %d, want %d", name, s.Count, n/2)
			}
			if want := time.Duration(n/2-zeros) * step / (n / 2); s.Mean != want {
				t.Errorf("%s mean = %v, want %v (%d stale-zero, %d fresh)", name, s.Mean, want, zeros, n/2-zeros)
			}
			// Within one tick of truth: every sample is in the zero bucket
			// or in step's own bucket — p99 at step's bucket edge, never a
			// bucket above it.
			if want := 8192 * time.Microsecond; s.P99 != want {
				t.Errorf("%s p99 = %v, want %v (the bucket holding %v)", name, s.P99, want, step)
			}
		}
		if !found {
			t.Fatalf("op %s missing from snapshot", name)
		}
	}
}

// TestStatsHistMonotoneUnderLoad polls STATS repeatedly while four
// connections hammer the shards and asserts every counter row and the
// batch-size histogram are monotone poll-over-poll: bulk ObserveN
// folding and the amortized clock must never make a published count
// step backwards.
func TestStatsHistMonotoneUnderLoad(t *testing.T) {
	srv := startServer(t, Options{Shards: 2})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := dial(t, srv)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.expect(t, fmt.Sprintf("SET %d", id*100000+i), "1")
				c.cmd(t, fmt.Sprintf("HSET k%d %d", id, i)) // 1 first, then 0 (overwrite)
			}
		}(id)
	}

	poller := dial(t, srv)
	last := map[string]int64{}
	for poll := 0; poll < 20; poll++ {
		body := readStats(t, poller, poller.cmd(t, "STATS"))
		for _, line := range strings.Split(body, "\n") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[0] != "op" && fields[0] != "hist") {
				continue
			}
			name := fields[0] + " " + fields[1]
			for _, f := range fields[2:] {
				if !strings.HasPrefix(f, "count=") && !strings.HasPrefix(f, "sum=") {
					continue
				}
				var v int64
				if _, err := fmt.Sscanf(f[strings.Index(f, "=")+1:], "%d", &v); err != nil {
					continue
				}
				key := name + " " + f[:strings.Index(f, "=")]
				if prev, ok := last[key]; ok && v < prev {
					t.Errorf("poll %d: %s went backwards: %d -> %d", poll, key, prev, v)
				}
				last[key] = v
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}
