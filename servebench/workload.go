package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
)

// kind is one request shape a workload sends.
type kind uint8

const (
	kSet kind = iota
	kGet
	kDel
	kEnq
	kDeq
	kPush
	kPop
	kInc
	kRead
	kPQAdd
	kPQMin
	kHGet
	kHSet
	kXfer // MULTI, HINCR key +val, HINCR key2 -val, EXEC
)

// mixCycle is the command order mix-pipelined replays.
var mixCycle = [...]kind{kSet, kGet, kDel, kEnq, kDeq, kPush, kPop, kInc, kRead, kPQAdd, kPQMin}

// op is one generated request: key indexes the workload's key space
// (integer key, map key or account), val is the pushed value, priority,
// written value or transfer amount.
type op struct {
	kind kind
	key  int32
	key2 int32
	val  int64
}

// window is one closed-loop round: the request bytes, the ops they
// encode, and the number of reply lines that answer them.
type window struct {
	req   []byte
	ops   []op
	lines int
}

// Workload sizes (see README.md for why each was chosen).
const (
	mixKeys      = 8192
	mixDepth     = 16
	mixWindows   = 16384 // per connection, replayed cyclically
	mapKeys      = 100000
	mapZipfS     = 1.1
	mapWritePct  = 5
	mapWindows   = 1 << 17
	txnAccounts  = 1024
	txnDepth     = 4
	txnWindows   = 8192
	txnStartBal  = 1000
	txnMaxAmount = 100
)

// spec describes one workload.
type spec struct {
	name  string
	depth int // ops per window
	// gen builds connection conn's windows from the seed.
	gen func(seed int64, conn int) []window
	// checker builds connection conn's reply model; p is shared by all
	// connections of a run.
	checker func(seed int64, conn int, p *pool) checker
}

var specs = []spec{
	{"mix-pipelined", mixDepth, genMix, func(_ int64, _ int, p *pool) checker { return newMixChecker(p) }},
	{"map-read-d1", 1, genMap, func(seed int64, conn int, _ *pool) checker { return newMapChecker(seed, conn) }},
	{"txn-transfer", txnDepth, genTxn, func(int64, int, *pool) checker { return txnChecker{} }},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (have mix-pipelined, map-read-d1, txn-transfer)", name)
}

// connRand derives a connection's generator from the workload seed.
func connRand(seed int64, conn int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(conn) + 1))
}

// mapKey renders map key index i; indexes are owned by connection i%2.
func mapKey(b []byte, i int32) []byte {
	return strconv.AppendInt(append(b, "key"...), int64(i), 10)
}

func acctKey(b []byte, i int32) []byte {
	return strconv.AppendInt(append(b, "acct:"...), int64(i), 10)
}

// pack cuts ops into windows of depth ops and renders their bytes into one
// shared buffer.
func pack(ops []op, depth, linesPerOp int, render func([]byte, op) []byte) []window {
	var buf []byte
	ends := make([]int, 0, len(ops)/depth)
	for i := 0; i < len(ops); i++ {
		buf = render(buf, ops[i])
		if (i+1)%depth == 0 {
			ends = append(ends, len(buf))
		}
	}
	wins := make([]window, len(ends))
	start := 0
	for i, end := range ends {
		wins[i] = window{req: buf[start:end:end], ops: ops[i*depth : (i+1)*depth], lines: depth * linesPerOp}
		start = end
	}
	return wins
}

// mixOps generates connection conn's mix-pipelined op stream: the
// 11-command cycle, keys uniform over the connection's half of mixKeys,
// pushed values unique per connection, priorities 0..7.
func mixOps(seed int64, conn, n int) []op {
	r := connRand(seed, conn)
	ops := make([]op, n)
	for i := range ops {
		k := mixCycle[i%len(mixCycle)]
		o := op{kind: k}
		switch k {
		case kSet, kGet, kDel:
			o.key = int32(2*r.Intn(mixKeys/2) + conn)
		case kEnq, kPush:
			o.val = int64(conn+1)<<32 | int64(i)
		case kPQAdd:
			o.val = int64(r.Intn(8))
		}
		ops[i] = o
	}
	return ops
}

var mixVerbs = [...]string{kSet: "SET", kGet: "GET", kDel: "DEL", kEnq: "ENQ", kDeq: "DEQ",
	kPush: "PUSH", kPop: "POP", kInc: "INC", kRead: "READ", kPQAdd: "PQADD", kPQMin: "PQMIN"}

func renderMix(b []byte, o op) []byte {
	b = append(b, mixVerbs[o.kind]...)
	switch o.kind {
	case kSet, kGet, kDel:
		b = strconv.AppendInt(append(b, ' '), int64(o.key), 10)
	case kEnq, kPush, kPQAdd:
		b = strconv.AppendInt(append(b, ' '), o.val, 10)
	}
	return append(b, '\n')
}

func genMix(seed int64, conn int) []window {
	return pack(mixOps(seed, conn, mixWindows*mixDepth), mixDepth, 1, renderMix)
}

// mapInitial is the value the preload writes at map key i.
func mapInitial(seed int64, i int32) int64 {
	return int64(uint64(seed)*0x9e3779b97f4a7c15^uint64(i)*0xbf58476d1ce4e5b9) & (1<<30 - 1)
}

// mapOps generates connection conn's HGET/HSET stream: key ranks follow
// Zipf(mapZipfS) over the connection's half of mapKeys.
func mapOps(seed int64, conn, n int) []op {
	r := connRand(seed, conn)
	z := rand.NewZipf(r, mapZipfS, 1, mapKeys/2-1)
	ops := make([]op, n)
	for i := range ops {
		o := op{kind: kHGet, key: int32(2*z.Uint64()) + int32(conn)}
		if r.Intn(100) < mapWritePct {
			o.kind, o.val = kHSet, r.Int63n(1<<30)
		}
		ops[i] = o
	}
	return ops
}

func renderMap(b []byte, o op) []byte {
	if o.kind == kHGet {
		return append(mapKey(append(b, "HGET "...), o.key), '\n')
	}
	b = mapKey(append(b, "HSET "...), o.key)
	return append(strconv.AppendInt(append(b, ' '), o.val, 10), '\n')
}

func genMap(seed int64, conn int) []window {
	return pack(mapOps(seed, conn, mapWindows), 1, 1, renderMap)
}

// txnOps generates balanced transfers between distinct accounts.
func txnOps(seed int64, conn, n int) []op {
	r := connRand(seed, conn)
	ops := make([]op, n)
	for i := range ops {
		a := r.Intn(txnAccounts)
		b := (a + 1 + r.Intn(txnAccounts-1)) % txnAccounts
		ops[i] = op{kind: kXfer, key: int32(a), key2: int32(b), val: 1 + r.Int63n(txnMaxAmount)}
	}
	return ops
}

func renderTxn(b []byte, o op) []byte {
	b = acctKey(append(b, "MULTI\nHINCR "...), o.key)
	b = strconv.AppendInt(append(b, ' '), o.val, 10)
	b = acctKey(append(b, "\nHINCR "...), o.key2)
	b = strconv.AppendInt(append(b, ' '), -o.val, 10)
	return append(b, "\nEXEC\n"...)
}

func genTxn(seed int64, conn int) []window {
	return pack(txnOps(seed, conn, txnWindows*txnDepth), txnDepth, 6, renderTxn)
}

// checker predicts and checks one connection's replies.
type checker interface {
	// sent registers a window's effects before its bytes are written.
	sent(w *window)
	// check compares a window's reply lines with the model and returns
	// the number of ops answered wrongly.
	check(w *window, lines [][]byte) int
}

// pool holds the values pushed on the shared queue, stack and priority
// queue and not yet taken, as multisets: any connection may take what
// another pushed.
type pool struct {
	mu    sync.Mutex
	queue map[int64]int32
	stack map[int64]int32
	pq    [8]int32
}

func newPool() *pool {
	return &pool{queue: make(map[int64]int32), stack: make(map[int64]int32)}
}

// take removes v from m, reporting whether it was there.
func take(m map[int64]int32, v int64) bool {
	n := m[v]
	if n <= 0 {
		return false
	}
	if n == 1 {
		delete(m, v)
	} else {
		m[v] = n - 1
	}
	return true
}

var (
	lineOK     = []byte("OK")
	lineQueued = []byte("+QUEUED")
	lineExec2  = []byte("*2")
	lineZero   = []byte("0")
	lineOne    = []byte("1")
)

func boolLine(b bool) []byte {
	if b {
		return lineOne
	}
	return lineZero
}

// atoi parses a decimal reply line.
func atoi(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := b[0] == '-'
	if neg {
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' || v > (1<<62)/10 {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// mixChecker models one mix-pipelined connection. Its set keys are its
// own, so SET/GET/DEL replies are exact; INC tickets must increase and
// READ may not fall behind them; taken values must come from the pool.
type mixChecker struct {
	present    []bool // by key/2
	lastTicket int64
	lastRead   int64
	pool       *pool
}

func newMixChecker(p *pool) *mixChecker {
	return &mixChecker{present: make([]bool, mixKeys/2), lastTicket: -1, pool: p}
}

func (m *mixChecker) sent(w *window) {
	p := m.pool
	p.mu.Lock()
	for _, o := range w.ops {
		switch o.kind {
		case kEnq:
			p.queue[o.val]++
		case kPush:
			p.stack[o.val]++
		case kPQAdd:
			p.pq[o.val]++
		}
	}
	p.mu.Unlock()
}

func (m *mixChecker) check(w *window, lines [][]byte) int {
	fails := 0
	p := m.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, o := range w.ops {
		l := lines[i]
		ok := false
		switch o.kind {
		case kSet:
			ok = bytes.Equal(l, boolLine(!m.present[o.key/2]))
			m.present[o.key/2] = true
		case kGet:
			ok = bytes.Equal(l, boolLine(m.present[o.key/2]))
		case kDel:
			ok = bytes.Equal(l, boolLine(m.present[o.key/2]))
			m.present[o.key/2] = false
		case kEnq, kPush, kPQAdd:
			ok = bytes.Equal(l, lineOK)
		case kDeq:
			v, isNum := atoi(l)
			ok = isNum && take(p.queue, v)
		case kPop:
			v, isNum := atoi(l)
			ok = isNum && take(p.stack, v)
		case kPQMin:
			v, isNum := atoi(l)
			ok = isNum && v >= 0 && v < 8 && p.pq[v] > 0
			if ok {
				p.pq[v]--
			}
		case kInc:
			v, isNum := atoi(l)
			ok = isNum && v > m.lastTicket
			m.lastTicket = v
		case kRead:
			v, isNum := atoi(l)
			ok = isNum && v > m.lastTicket && v >= m.lastRead
			m.lastRead = v
		}
		if !ok {
			fails++
		}
	}
	return fails
}

// mapChecker models one map-read-d1 connection's keys: HGET must return
// the last value written, HSET must report an overwrite (every key is
// preloaded).
type mapChecker struct {
	vals []int64 // by key/2
}

func newMapChecker(seed int64, conn int) *mapChecker {
	m := &mapChecker{vals: make([]int64, mapKeys/2)}
	for j := range m.vals {
		m.vals[j] = mapInitial(seed, int32(2*j+conn))
	}
	return m
}

func (m *mapChecker) sent(*window) {}

func (m *mapChecker) check(w *window, lines [][]byte) int {
	fails := 0
	for i, o := range w.ops {
		ok := false
		if o.kind == kHGet {
			v, isNum := atoi(lines[i])
			ok = isNum && v == m.vals[o.key/2]
		} else {
			ok = bytes.Equal(lines[i], lineZero)
			m.vals[o.key/2] = o.val
		}
		if !ok {
			fails++
		}
	}
	return fails
}

// txnChecker checks each transfer's reply shape: OK, two +QUEUED, *2 and
// two integers. The balance-sum invariant is checked once the load stops.
type txnChecker struct{}

func (txnChecker) sent(*window) {}

func (txnChecker) check(w *window, lines [][]byte) int {
	fails := 0
	for i := range w.ops {
		l := lines[6*i : 6*i+6]
		_, ok1 := atoi(l[4])
		_, ok2 := atoi(l[5])
		if !bytes.Equal(l[0], lineOK) || !bytes.Equal(l[1], lineQueued) || !bytes.Equal(l[2], lineQueued) ||
			!bytes.Equal(l[3], lineExec2) || !ok1 || !ok2 {
			fails++
		}
	}
	return fails
}
