package main

import (
	"bytes"
	"runtime"
	"strconv"
	"time"

	"amp/internal/hashset"
	"amp/internal/mailbox"
	"amp/internal/metrics"
	"amp/internal/pqueue"
	"amp/internal/queue"
	"amp/internal/server"
	"amp/internal/snapshot"
	"amp/internal/stack"
	"amp/internal/txn"
)

// replayer times in-process calls into each layer's public functions on
// the workload's own inputs, one span per batch under one replay root.
type replayer struct {
	epoch time.Time
	trace uint64
	spans []span
}

const replayBatch = 4096

func (r *replayer) now() int64 { return int64(time.Since(r.epoch)) }

// batches runs f over [0,n) in batches, records a span per batch and
// returns the mean ns per item.
func (r *replayer) batches(name uint8, n int, f func(lo, hi int)) float64 {
	var total int64
	for lo := 0; lo < n; lo += replayBatch {
		hi := min(lo+replayBatch, n)
		s := r.now()
		f(lo, hi)
		e := r.now()
		total += e - s
		r.spans = append(r.spans, span{trace: r.trace, parent: 0, name: name, ops: int32(hi - lo), start: s, end: e})
	}
	return float64(total) / float64(max(n, 1))
}

// replayInputs is what the replay phase feeds the layers.
type replayInputs struct {
	lines    [][]byte // the workload's request lines
	mix      []op     // mix-pipelined's op stream (both connections)
	keys     []string // the workload's string keys, preloaded into the keyspace
	vals     []int64  // their initial values
	reads    []int32  // key indexes the workload reads
	xfers    []op     // transfers over key indexes
	rtts     []int64  // measured window round trips, for metrics.Observe
	setElems []int64  // set members for the snapshot image
}

// layerMetrics runs every replay and returns the per-layer metrics.
func (r *replayer) layerMetrics(in replayInputs) map[string]float64 {
	m := make(map[string]float64)
	r.spans = append(r.spans, span{trace: r.trace, parent: -1, name: spReplay, start: r.now()})

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	m["protocol.parse_ns"] = r.batches(spParse, len(in.lines), func(lo, hi int) {
		for _, l := range in.lines[lo:hi] {
			if c, err := server.ParseCommand(l); err != nil || c.Op == server.OpInvalid {
				panic("replay: generated line does not parse: " + string(l))
			}
		}
	})
	runtime.ReadMemStats(&ms1)
	m["protocol.parse_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(len(in.lines), 1))

	const handoffItems = 1 << 19
	mb := mailbox.New[int64](128, 0)
	m["mailbox.handoff_ns"] = r.batches(spHandoff, handoffItems, func(lo, hi int) {
		for i := lo; i < hi; i += mixDepth {
			for j := i; j < i+mixDepth; j++ {
				mb.PutQuiet(int64(j))
			}
			for j := i; j < i+mixDepth; j++ {
				if v, ok := mb.TryGet(); !ok || v != int64(j) {
					panic("replay: mailbox lost an item")
				}
			}
		}
	})

	set := hashset.NewStripedHashSet(1024)
	var setOps []op
	q := queue.NewUnboundedQueue[int64]()
	var qOps []op
	st := stack.NewLockFreeStack[int64]()
	var stOps []op
	pq := pqueue.NewSkipQueue()
	var pqOps []op
	for _, o := range in.mix {
		switch o.kind {
		case kSet, kGet, kDel:
			setOps = append(setOps, o)
		case kEnq, kDeq:
			qOps = append(qOps, o)
		case kPush, kPop:
			stOps = append(stOps, o)
		case kPQAdd, kPQMin:
			pqOps = append(pqOps, o)
		}
	}
	m["hashset.op_ns"] = r.batches(spHashset, len(setOps), func(lo, hi int) {
		for _, o := range setOps[lo:hi] {
			switch o.kind {
			case kSet:
				set.Add(int(o.key))
			case kGet:
				set.Contains(int(o.key))
			default:
				set.Remove(int(o.key))
			}
		}
	})
	m["queue.op_ns"] = r.batches(spQueue, len(qOps), func(lo, hi int) {
		for _, o := range qOps[lo:hi] {
			if o.kind == kEnq {
				q.Enq(o.val)
			} else {
				q.Deq()
			}
		}
	})
	m["stack.op_ns"] = r.batches(spStack, len(stOps), func(lo, hi int) {
		for _, o := range stOps[lo:hi] {
			if o.kind == kPush {
				st.Push(o.val)
			} else {
				st.Pop()
			}
		}
	})
	m["pqueue.op_ns"] = r.batches(spPQueue, len(pqOps), func(lo, hi int) {
		for _, o := range pqOps[lo:hi] {
			if o.kind == kPQAdd {
				pq.Add(int(o.val))
			} else {
				pq.RemoveMin()
			}
		}
	})

	ks, err := txn.New("tl2", "aggressive")
	if err != nil {
		panic(err)
	}
	for i, k := range in.keys {
		ks.Set(k, in.vals[i])
	}
	m["txn.get_ns"] = r.batches(spTxnGet, len(in.reads), func(lo, hi int) {
		for _, k := range in.reads[lo:hi] {
			ks.Get(in.keys[k])
		}
	})
	m["txn.set_ns"] = r.batches(spTxnSet, len(in.reads), func(lo, hi int) {
		for i, k := range in.reads[lo:hi] {
			ks.Set(in.keys[k], int64(lo+i))
		}
	})
	const incs = 1 << 18
	m["txn.inc_ns"] = r.batches(spTxnInc, incs, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ks.Inc()
		}
	})
	txs := make([][]txn.Op, len(in.xfers))
	for i, x := range in.xfers {
		txs[i] = []txn.Op{{Kind: txn.Incr, Key: in.keys[x.key], Val: x.val}, {Kind: txn.Incr, Key: in.keys[x.key2], Val: -x.val}}
	}
	m["txn.exec_ns"] = r.batches(spTxnExec, len(txs), func(lo, hi int) {
		for _, t := range txs[lo:hi] {
			ks.Exec(t)
		}
	})

	reg := metrics.NewRegistry(nil, "op")
	obs := reg.Op("op")
	const observations = 1 << 19
	m["metrics.observe_ns"] = r.batches(spObserve, observations, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			obs.Observe(time.Duration(in.rtts[i%len(in.rtts)]), 0)
		}
	})

	img := &snapshot.State{Set: in.setElems, Shards: 2}
	for i, k := range in.keys {
		img.Map = append(img.Map, snapshot.Entry{Key: k, Val: in.vals[i]})
	}
	entries := len(img.Set) + len(img.Map)
	reps := max(8, (1<<18)/max(entries, 1))
	var encodeNS int64
	for i := 0; i < reps; i++ {
		s := r.now()
		snapshot.Encode(img)
		e := r.now()
		encodeNS += e - s
		r.spans = append(r.spans, span{trace: r.trace, parent: 0, name: spEncode, ops: int32(entries), start: s, end: e})
	}
	m["snapshot.encode_ns_per_entry"] = float64(encodeNS) / float64(reps*max(entries, 1))

	r.spans[0].end = r.now()
	return m
}

// splitLines cuts windows' request bytes into lines without the newline.
func splitLines(wins []window) [][]byte {
	var out [][]byte
	for _, w := range wins {
		for rest := w.req; len(rest) > 0; {
			i := bytes.IndexByte(rest, '\n')
			out = append(out, rest[:i])
			rest = rest[i+1:]
		}
	}
	return out
}

// keyNames renders n string keys with render.
func keyNames(n int, render func([]byte, int32) []byte) []string {
	keys := make([]string, n)
	var b []byte
	for i := range keys {
		b = render(b[:0], int32(i))
		keys[i] = string(b)
	}
	return keys
}

// mixKeyName renders an integer set key as a keyspace key for the txn
// replay on mix-pipelined.
func mixKeyName(b []byte, i int32) []byte {
	return strconv.AppendInt(append(b, 'k'), int64(i), 10)
}
