package main

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"time"
)

// countingConn wraps the load connection and counts its syscalls and
// bytes; the sampler reads the counters between slices.
type countingConn struct {
	net.Conn
	reads, rbytes, wbytes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	c.rbytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wbytes.Add(int64(n))
	return n, err
}

// replyReader collects one window's reply lines. A closed loop never
// leaves bytes behind a window, so each window starts at the buffer's
// front and its lines stay valid until the next window.
type replyReader struct {
	c     *countingConn
	buf   []byte
	lines [][]byte
}

var errReplyOverflow = errors.New("window reply overflows the read buffer")

func (r *replyReader) window(n int) ([][]byte, error) {
	w, nl := 0, 0
	for nl < n {
		if w == len(r.buf) {
			return nil, errReplyOverflow
		}
		k, err := r.c.Read(r.buf[w:])
		if k > 0 {
			nl += bytes.Count(r.buf[w:w+k], []byte{'\n'})
			w += k
		}
		if err != nil && nl < n {
			return nil, err
		}
	}
	if nl > n {
		return nil, errors.New("more reply lines than requests")
	}
	r.lines = r.lines[:0]
	for start, i := 0, 0; i < w; i++ {
		if r.buf[i] == '\n' {
			end := i
			if end > start && r.buf[end-1] == '\r' {
				end--
			}
			r.lines = append(r.lines, r.buf[start:end])
			start = i + 1
		}
	}
	return r.lines, nil
}

// client is one closed-loop connection: it sends window i+1 only after
// every reply of window i has arrived and been checked.
type client struct {
	conn  *countingConn
	rd    replyReader
	wins  []window
	chk   checker
	epoch time.Time

	// Per window, appended by the client goroutine and read after it
	// returns: completion time (ns since epoch) and write-to-last-reply
	// round trip (ns).
	ends []int64
	rtts []int64

	ops, fails int64
	err        error
	spans      []span
	traceSeq   uint64
}

// timeout bounds one window's round trip; a longer wait is a failure.
const timeout = 10 * time.Second

// now is monotonic nanoseconds since the run's epoch.
func (c *client) now() int64 { return int64(time.Since(c.epoch)) }

// run drives the loop until stop is set. While tracing is on, every
// traceEvery-th window records its spans.
func (c *client) run(stop, tracing *atomic.Bool, id uint64) {
	var deadline int64
	for i := 0; !stop.Load(); i++ {
		w := &c.wins[i%len(c.wins)]
		traced := i%traceEvery == 0 && tracing.Load() && len(c.spans) < maxSpans
		var tg int64
		if traced {
			tg = c.now()
		}
		c.chk.sent(w)
		t0 := c.now()
		if t0 > deadline-int64(timeout)/2 {
			deadline = t0 + int64(timeout)
			c.conn.SetDeadline(c.epoch.Add(time.Duration(deadline)))
		}
		if _, err := c.conn.Write(w.req); err != nil {
			c.fail(w, err)
			return
		}
		var t1 int64
		if traced {
			t1 = c.now()
		}
		lines, err := c.rd.window(w.lines)
		if err != nil {
			c.fail(w, err)
			return
		}
		t2 := c.now()
		c.fails += int64(c.chk.check(w, lines))
		c.ops += int64(len(w.ops))
		c.ends = append(c.ends, t2)
		c.rtts = append(c.rtts, t2-t0)
		if traced {
			t3 := c.now()
			c.traceSeq++
			tid := id<<48 | c.traceSeq
			root := int32(len(c.spans))
			c.spans = append(c.spans,
				span{trace: tid, parent: -1, name: spWindow, start: tg, end: t3, ops: int32(len(w.ops))},
				span{trace: tid, parent: root, name: spWrite, start: t0, end: t1},
				span{trace: tid, parent: root, name: spWait, start: t1, end: t2},
				span{trace: tid, parent: root, name: spCheck, start: t2, end: t3})
		}
	}
}

func (c *client) fail(w *window, err error) {
	c.ops += int64(len(w.ops))
	c.fails += int64(len(w.ops))
	c.err = err
}
