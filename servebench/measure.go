package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is the state read at a slice boundary.
type sample struct {
	t     int64 // ns since epoch
	ticks int64 // server user+system clock ticks
	host  hostCPU
}

// load is one closed-loop run: the clients, the slice boundaries of the
// timed window, and the counters read at its two ends.
type load struct {
	clients        [conns]*client
	epoch          time.Time
	samples        []sample
	statsA, statsB serverStats
	readsA, readsB int64 // load-connection read syscalls
	bytesA, bytesB int64 // load-connection bytes, both directions
}

// drive runs the workload's closed loop on the rig's load connections:
// warm-up, then seconds of timed slices. In a traced run, odd slices
// record spans.
func drive(cfg config, sp spec, r *rig, wins [conns][]window) (*load, error) {
	ld := &load{epoch: time.Now()}
	pl := newPool()
	for c := range ld.clients {
		cc := &countingConn{Conn: r.load[c].c}
		cl := &client{conn: cc, rd: replyReader{c: cc, buf: make([]byte, 1<<16)}, wins: wins[c],
			chk: sp.checker(cfg.seed, c, pl), epoch: ld.epoch}
		// Room for 40k windows a second per connection, above what any
		// workload reaches here, so the timed loop never regrows them.
		est := (cfg.seconds + 2) * 40000
		cl.ends, cl.rtts = make([]int64, 0, est), make([]int64, 0, est)
		ld.clients[c] = cl
	}
	var stop, tracing atomic.Bool
	var wg sync.WaitGroup
	for c, cl := range ld.clients {
		wg.Add(1)
		go func(id uint64, cl *client) {
			defer wg.Done()
			cl.run(&stop, &tracing, id)
			if cl.err != nil {
				stop.Store(true)
			}
		}(uint64(c+1), cl)
	}
	halt := func() {
		stop.Store(true)
		wg.Wait()
	}

	time.Sleep(warmup)
	var err error
	if ld.statsA, err = r.p.stats(r.ctl); err != nil {
		halt()
		return nil, err
	}
	ld.readsA, ld.bytesA = ld.netCounts()
	s0, err := ld.sample(r.p.pid())
	if err != nil {
		halt()
		return nil, err
	}
	ld.samples = []sample{s0}
	nSlices := int(time.Duration(cfg.seconds) * time.Second / slice)
	for k := 0; k < nSlices && !stop.Load(); k++ {
		time.Sleep(time.Until(ld.epoch.Add(time.Duration(s0.t) + time.Duration(k+1)*slice)))
		s, err := ld.sample(r.p.pid())
		if err != nil {
			halt()
			return nil, err
		}
		ld.samples = append(ld.samples, s)
		tracing.Store(cfg.trace && k%2 == 0) // slice k+1 is traced when odd
	}
	ld.readsB, ld.bytesB = ld.netCounts()
	ld.statsB, err = r.p.stats(r.ctl)
	halt()
	return ld, err
}

func (ld *load) sample(pid int) (sample, error) {
	ticks, err := cpuTicks(pid)
	return sample{t: int64(time.Since(ld.epoch)), ticks: ticks, host: readHostCPU()}, err
}

func (ld *load) netCounts() (reads, bytes int64) {
	for _, cl := range ld.clients {
		reads += cl.conn.reads.Load()
		bytes += cl.conn.rbytes.Load() + cl.conn.wbytes.Load()
	}
	return reads, bytes
}

// sliceStat is one slice of the timed window.
type sliceStat struct {
	tput, p50, p90, cpuPerOp float64 // ops/s, µs, µs, server µs per op
	steal                    float64 // host steal %
	samples                  int     // window round trips
}

// timeline is the timed window cut into slices.
type timeline struct {
	untraced, traced []sliceStat
	rtts             []int64 // every timed round trip, sorted
	windows, ops     int64
}

// timeline assigns each timed window to the slice it completed in.
func (ld *load) timeline(depth int, traced bool) timeline {
	var tl timeline
	s := ld.samples
	n := len(s) - 1
	perSlice := make([][]int64, n)
	for _, cl := range ld.clients {
		for i, end := range cl.ends {
			if end < s[0].t || end >= s[n].t {
				continue
			}
			k := sort.Search(n, func(k int) bool { return s[k+1].t > end })
			perSlice[k] = append(perSlice[k], cl.rtts[i])
			tl.rtts = append(tl.rtts, cl.rtts[i])
		}
	}
	sortInts(tl.rtts)
	tl.windows = int64(len(tl.rtts))
	tl.ops = tl.windows * int64(depth)
	for k, rtts := range perSlice {
		sortInts(rtts)
		a, b := s[k], s[k+1]
		ops := float64(len(rtts) * depth)
		st := sliceStat{
			tput:     ops / (float64(b.t-a.t) / 1e9),
			p50:      quantile(rtts, 0.50) / 1e3,
			p90:      quantile(rtts, 0.90) / 1e3,
			cpuPerOp: ratio(float64((b.ticks-a.ticks)*int64(clockTick/time.Microsecond)), ops),
			samples:  len(rtts),
		}
		st.steal, _ = a.host.pct(b.host)
		isTraced := traced && k%2 == 1
		fmt.Printf("slice %2d: %10.0f ops/s  p50 %8.1f us  p90 %8.1f us  server cpu %6.3f us/op  steal %4.1f%%  traced %v\n",
			k, st.tput, st.p50, st.p90, st.cpuPerOp, st.steal, isTraced)
		if isTraced {
			tl.traced = append(tl.traced, st)
		} else {
			tl.untraced = append(tl.untraced, st)
		}
	}
	return tl
}

// quietest returns the eighth of the slices (at least five, ties
// included) with the least host steal: the end-to-end metrics are medians
// over these, so a run measures the server rather than its neighbours.
func quietest(sl []sliceStat) []sliceStat {
	s := append([]sliceStat(nil), sl...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].steal < s[j].steal })
	k := min(max(len(s)/8, 5), len(s))
	for k < len(s) && s[k].steal == s[k-1].steal {
		k++
	}
	return s[:k]
}

// medianBy is the median of f over the slices.
func medianBy(sl []sliceStat, f func(sliceStat) float64) float64 {
	v := make([]float64, len(sl))
	for i, s := range sl {
		v[i] = f(s)
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	switch n := len(v); {
	case n == 0:
		return 0
	case n%2 == 1:
		return v[n/2]
	default:
		return (v[n/2-1] + v[n/2]) / 2
	}
}

func sortInts(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowLayers derives the client- and server-side per-layer metrics of
// the timed window: span sums, connection counters, and STATS, TXSTATS
// and memstats deltas.
func (ld *load) windowLayers(tl timeline) map[string]float64 {
	lm := make(map[string]float64)
	var writeNS, checkNS, spanOps float64
	var waits []int64
	for _, cl := range ld.clients {
		for _, s := range cl.spans {
			d := float64(s.end - s.start)
			switch s.name {
			case spWindow:
				spanOps += float64(s.ops)
				checkNS += d
			case spWrite:
				writeNS += d
				checkNS -= d
			case spWait:
				waits = append(waits, s.end-s.start)
				checkNS -= d
			}
		}
	}
	sortInts(waits)
	ops, windows := float64(tl.ops), float64(tl.windows)
	lm["tcp.write_ns_per_op"] = ratio(writeNS, spanOps)
	lm["tcp.wait_us_p50"] = quantile(waits, 0.5) / 1e3
	lm["tcp.reads_per_window"] = ratio(float64(ld.readsB-ld.readsA), windows)
	lm["tcp.bytes_per_op"] = ratio(float64(ld.bytesB-ld.bytesA), ops)
	lm["client.gen_check_ns_per_op"] = ratio(checkNS, spanOps)
	lm["client.latency_p99_us"] = quantile(tl.rtts, 0.99) / 1e3
	lm["client.latency_p999_us"] = quantile(tl.rtts, 0.999) / 1e3

	a, b := ld.statsA, ld.statsB
	d := func(name string) float64 { return float64(b.ops[name] - a.ops[name]) }
	batches := float64(b.batchCount - a.batchCount)
	lm["engine.batch_mean"] = ratio(float64(b.batchSum-a.batchSum), batches)
	lm["engine.batches_per_window"] = ratio(batches, windows)
	lm["engine.caller_combine_ratio"] = ratio(d("shard.combine.caller"), d("shard.combine.caller")+d("shard.combine.shard"))
	lm["engine.read_bypass_ratio"] = ratio(d("read.bypass"), d("read.bypass")+d("read.mailbox"))
	lm["mailbox.spin_per_kop"] = ratio(1000*d("shard.spin"), ops)
	lm["mailbox.park_per_kop"] = ratio(1000*d("shard.park"), ops)
	commits, aborts := float64(b.commits-a.commits), float64(b.aborts-a.aborts)
	lm["txn.commit_ratio"] = ratio(commits, commits+aborts)
	lm["server.allocs_per_op"] = ratio(float64(b.mallocs-a.mallocs), ops)
	lm["server.gc_per_mop"] = ratio(1e6*float64(b.numGC-a.numGC), ops)

	first, last := ld.samples[0], ld.samples[len(ld.samples)-1]
	lm["host.steal_pct"], lm["host.idle_pct"] = first.host.pct(last.host)
	tputOf := func(s sliceStat) float64 { return s.tput }
	lm["trace.overhead_pct"] = 100 * (ratio(medianBy(quietest(tl.untraced), tputOf), medianBy(quietest(tl.traced), tputOf)) - 1)
	return lm
}
