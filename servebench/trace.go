package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// Span names. The window span is the root of one client window; its
// children are the write, the wait for the last reply and the check. The
// replay span is the root of the replay phase; each replay batch is one
// child named after the layer call it times.
const (
	spWindow uint8 = iota
	spWrite
	spWait
	spCheck
	spReplay
	spParse
	spHandoff
	spHashset
	spQueue
	spStack
	spPQueue
	spTxnGet
	spTxnSet
	spTxnInc
	spTxnExec
	spObserve
	spEncode
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"window", "tcp.write", "tcp.wait", "client.check", "replay",
	"protocol.parse", "mailbox.handoff", "hashset.op", "queue.op", "stack.op", "pqueue.op",
	"txn.get", "txn.set", "txn.inc", "txn.exec", "metrics.observe", "snapshot.encode",
}

// span is one timed interval. Spans of one window (or of the replay
// phase) share trace; parent indexes the same slice, -1 for a root.
type span struct {
	trace      uint64
	parent     int32
	name       uint8
	ops        int32 // ops the span covers (window and replay batch spans)
	start, end int64 // ns since the run's epoch
}

// Window sampling: while tracing is on, one window in traceEvery records
// its four spans, and a connection stops recording at maxSpans, which
// bounds trace memory at maxSpans*40 bytes (10 MB) per connection.
const (
	traceEvery = 8
	maxSpans   = 1 << 18
)

// selfTimes returns, per span name, the mean self time in µs (duration
// minus the union of its children's intervals) and the span count. Each
// group is one slice that parent indexes refer to.
func selfTimes(groups ...[]span) (meanUS [numSpanNames]float64, count [numSpanNames]int) {
	var total [numSpanNames]float64
	for _, spans := range groups {
		addSelfTimes(spans, &total, &count)
	}
	for n := range total {
		if count[n] > 0 {
			meanUS[n] = total[n] / float64(count[n])
		}
	}
	return meanUS, count
}

func addSelfTimes(spans []span, total *[numSpanNames]float64, count *[numSpanNames]int) {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	for i, s := range spans {
		self := s.end - s.start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(k[0], reach, s.start), min(k[1], s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		total[s.name] += float64(self-covered) / 1e3
		count[s.name]++
	}
}

// writeSpans writes one JSON object per span, with parent as the line
// number (from 0) of the parent span in the file, -1 for a root.
func writeSpans(path string, groups ...[]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	base := int32(0)
	for _, spans := range groups {
		for _, s := range spans {
			parent := s.parent
			if parent >= 0 {
				parent += base
			}
			fmt.Fprintf(w, "{\"trace\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"ops\":%d}\n",
				s.trace, parent, spanNames[s.name], s.start, s.end, s.ops)
		}
		base += int32(len(spans))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
