package server

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"amp/internal/core"
	"amp/internal/epoch"
	"amp/internal/list"
	"amp/internal/skiplist"
	"amp/internal/strmap"
)

// setMixHistoryClient replays a read-heavy GET/SET/DEL mix over a small
// integer alphabet through one pipelined connection, recording every
// operation against the set model: Call when the command is sent, Done
// when its reply is read. readPct of the operations are GETs; the rest
// split 2:1 between SET and DEL so membership keeps flipping under the
// readers. Goroutine-safe (returns errors, no t.Fatal).
func setMixHistoryClient(addr string, rec *core.Recorder, me core.ThreadID,
	alphabet, readPct, depth, ops, id int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	rng := rand.New(rand.NewSource(int64(id)*6007 + 3))

	window := make([]*core.PendingOp, 0, depth)
	for next := 0; next < ops; {
		window = window[:0]
		for next < ops && len(window) < depth {
			k := rng.Intn(alphabet)
			switch {
			case rng.Intn(100) < readPct:
				window = append(window, rec.Call(me, "contains", k))
				fmt.Fprintf(w, "GET %d\n", k)
			case rng.Intn(3) < 2:
				window = append(window, rec.Call(me, "add", k))
				fmt.Fprintf(w, "SET %d\n", k)
			default:
				window = append(window, rec.Call(me, "remove", k))
				fmt.Fprintf(w, "DEL %d\n", k)
			}
			next++
		}
		if err := w.Flush(); err != nil {
			return err
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		for _, pend := range window {
			line, err := r.ReadString('\n')
			if err != nil {
				return err
			}
			switch strings.TrimSuffix(line, "\n") {
			case "1":
				pend.Done(true)
			case "0":
				pend.Done(false)
			default:
				return fmt.Errorf("set reply %q, want 1 or 0", line)
			}
		}
	}
	return nil
}

// mapMixHistoryClient is setMixHistoryClient's string-keyed twin: a
// read-heavy HGET/HSET/HDEL mix over the given key alphabet, recorded
// against the map model with mapHistoryClient's conventions.
func mapMixHistoryClient(addr string, rec *core.Recorder, me core.ThreadID,
	keys []string, readPct, depth, ops, id int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	rng := rand.New(rand.NewSource(int64(id)*9001 + 5))

	type sent struct {
		pend *core.PendingOp
		get  bool
	}
	window := make([]sent, 0, depth)
	for next := 0; next < ops; {
		window = window[:0]
		for next < ops && len(window) < depth {
			key := keys[rng.Intn(len(keys))]
			switch {
			case rng.Intn(100) < readPct:
				window = append(window, sent{rec.Call(me, "get", key), true})
				fmt.Fprintf(w, "HGET %s\n", key)
			case rng.Intn(3) < 2:
				v := int64(id*100_000 + next)
				window = append(window, sent{rec.Call(me, "set", core.MapSetInput{K: key, V: v}), false})
				fmt.Fprintf(w, "HSET %s %d\n", key, v)
			default:
				window = append(window, sent{rec.Call(me, "del", key), false})
				fmt.Fprintf(w, "HDEL %s\n", key)
			}
			next++
		}
		if err := w.Flush(); err != nil {
			return err
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		for _, s := range window {
			line, err := r.ReadString('\n')
			if err != nil {
				return err
			}
			line = strings.TrimSuffix(line, "\n")
			switch {
			case s.get && line == "EMPTY":
				s.pend.Done(core.Empty)
			case s.get:
				v, err := strconv.ParseInt(line, 10, 64)
				if err != nil {
					return fmt.Errorf("HGET reply %q, want integer or EMPTY", line)
				}
				s.pend.Done(v)
			case line == "1":
				s.pend.Done(true)
			case line == "0":
				s.pend.Done(false)
			default:
				return fmt.Errorf("map reply %q, want 1 or 0", line)
			}
		}
	}
	return nil
}

// testServerLinearizableReadMix records a read-heavy concurrent history
// through a live server whose reads take the wait-free bypass, and
// checks it against the sequential model. Bypassed reads execute on the
// connection goroutine while writes apply under the shard locks,
// so this is exactly the schedule where a stale or torn read would show
// up as a non-linearizable history.
//
// The ISSUE contract wants depth-1 and depth-8 connections: depth 8
// widens the overlap to 1+8 = 9 simultaneously open windows, so the
// budget is doubled relative to the write-heavy harnesses and the same
// exhausted-search re-record discipline applies (see
// testServerLinearizable for why an exhausted search proves nothing).
func testServerLinearizableReadMix(t *testing.T, opts Options, family string, readPct int) {
	const rounds, perRound, opsEach = 6, 2, 85 // 12 clients, 1020-op histories
	depths := []int{1, 8}
	const budget = 4_000_000
	const attempts = 6
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	model := core.SetModel()
	if family == "map" {
		model = core.MapModel()
	}

	for attempt := 1; attempt <= attempts; attempt++ {
		srv := startServer(t, opts) // fresh structures: model starts empty
		rec := core.NewRecorder()

		for r := 0; r < rounds && !t.Failed(); r++ {
			var wg sync.WaitGroup
			for j := 0; j < perRound; j++ {
				id := r*perRound + j
				wg.Add(1)
				go func(id, depth int) {
					defer wg.Done()
					var err error
					if family == "map" {
						err = mapMixHistoryClient(srv.Addr().String(), rec, core.ThreadID(id),
							keys, readPct, depth, opsEach, id)
					} else {
						err = setMixHistoryClient(srv.Addr().String(), rec, core.ThreadID(id),
							6, readPct, depth, opsEach, id)
					}
					if err != nil {
						t.Errorf("client %d: %v", id, err)
					}
				}(id, depths[j])
			}
			wg.Wait()
		}
		if t.Failed() {
			return
		}

		h := rec.History()
		if len(h) < 1000 {
			t.Fatalf("history has %d ops, want >= 1000", len(h))
		}
		res := core.CheckBudget(model, h, budget)
		switch {
		case res.Exhausted:
			t.Logf("%s/%d%%: attempt %d/%d exhausted the %d-step budget on %d ops; re-recording",
				model.Name, readPct, attempt, attempts, budget, len(h))
		case !res.Linearizable:
			t.Fatalf("%s/%d%%: %d-op read-mix history is not linearizable", model.Name, readPct, len(h))
		default:
			return // linearizable, witness found
		}
	}
	t.Fatalf("%s/%d%%: checker budget exhausted on %d consecutive recordings", model.Name, readPct, attempts)
}

// TestServerLinearizableReadMixSet proves bypassed GETs linearize with
// batched SET/DEL traffic for every bypass-capable set backend, at 90%
// and 99% read ratios.
func TestServerLinearizableReadMixSet(t *testing.T) {
	for _, name := range BypassSetBackends() {
		for _, pct := range []int{90, 99} {
			t.Run(fmt.Sprintf("%s-%d", name, pct), func(t *testing.T) {
				testServerLinearizableReadMix(t, Options{Shards: 4, Set: name}, "set", pct)
			})
		}
	}
}

// TestServerLinearizableReadMixMap proves bypassed HGETs linearize with
// batched HSET/HDEL traffic on the epoch-published map backend (txn off,
// so the reads hit the shard dictionaries, not the keyspace).
func TestServerLinearizableReadMixMap(t *testing.T) {
	for _, name := range BypassMapBackends() {
		for _, pct := range []int{90, 99} {
			t.Run(fmt.Sprintf("%s-%d", name, pct), func(t *testing.T) {
				testServerLinearizableReadMix(t, Options{Shards: 4, Map: name, Txn: "off"}, "map", pct)
			})
		}
	}
}

// TestServerLinearizableReadMixKeyspace pins the transaction contract:
// with -txn on (the default), a bypassed HGET reads committed tvar
// state through the keyspace, and the mixed history must still
// linearize against the map model.
func TestServerLinearizableReadMixKeyspace(t *testing.T) {
	for _, pct := range []int{90, 99} {
		t.Run(fmt.Sprintf("tl2-%d", pct), func(t *testing.T) {
			testServerLinearizableReadMix(t, Options{Shards: 4}, "map", pct)
		})
	}
}

// TestBypassReadMidDrain is the whitebox interleaving test: applyHook
// wedges the shard between two commands of a same-key write batch, and
// a bypass read issued from another connection must (a) complete while
// the shard is stuck — it would hang on the shard lock otherwise — and (b) observe exactly the prefix of the batch that has
// applied: the pre-wedge value, never a torn intermediate. After the
// wedge releases, the same read sees the post-batch value. Run at
// GOMAXPROCS 2 and 8 so both starved and parallel schedules are
// exercised (under -race this is also the publication-order check).
func TestBypassReadMidDrain(t *testing.T) {
	for _, procs := range []int{2, 8} {
		t.Run(fmt.Sprintf("procs-%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			testBypassReadMidDrain(t)
		})
	}
}

func testBypassReadMidDrain(t *testing.T) {
	srv := startServer(t, Options{Shards: 1, Set: "list-epoch", Map: "epoch", Txn: "off"})

	// Wedge points: the hook runs under the shard lock before a command
	// applies, so parking on HSET k 2 freezes the shard with the
	// overwrite pending, and parking on DEL 7 freezes a two-command
	// batch with its first command (SET 8) already applied. Installing
	// the hook here is safe because no command is in flight yet and
	// acquiring the shard lock orders this write before the hook's read.
	type wedge struct {
		op  Op
		arg int64
	}
	wedges := map[wedge]bool{
		{OpHSet, 2}: true,
		{OpDel, 7}:  true,
	}
	entered := make(chan Command)
	release := make(chan struct{})
	srv.eng.applyHook = func(cmd Command) {
		if wedges[wedge{cmd.Op, cmd.Arg}] {
			entered <- cmd
			<-release
		}
	}

	writer := dial(t, srv)
	reader := dial(t, srv)

	// read does one bypass read on the reader connection with a short
	// deadline: if the read ever takes the shard lock it parks behind the
	// wedged shard and the deadline converts the hang into a failure.
	read := func(line, want, while string) {
		t.Helper()
		if _, err := fmt.Fprintf(reader.conn, "%s\n", line); err != nil {
			t.Fatalf("write %q: %v", line, err)
		}
		reader.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		got, err := reader.r.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: bypass read %q blocked behind the wedged shard: %v", while, line, err)
		}
		if got = strings.TrimSuffix(got, "\n"); got != want {
			t.Fatalf("%s: %q → %q, want %q", while, line, got, want)
		}
	}

	// Map family: prime k=1, then send the overwrite that wedges before
	// it applies — mid-drain the reader must still see 1, never 2 and
	// never a torn value.
	writer.expect(t, "HSET k 1", "1")
	if _, err := writer.conn.Write([]byte("HSET k 2\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	<-entered // shard parked before the overwrite applies
	read("HGET k", "1", "mid-drain")
	release <- struct{}{}
	if got := writer.readLine(t); got != "0" {
		t.Fatalf("HSET k 2 → %q, want 0 (overwrite)", got)
	}
	read("HGET k", "2", "post-batch")

	// Set family: one pipelined two-command batch [SET 8, DEL 7] wedged
	// before the DEL applies. Mid-drain the reader must see the applied
	// prefix — 8 present, 7 still present — and after release, 7 gone.
	writer.expect(t, "SET 7", "1")
	if _, err := writer.conn.Write([]byte("SET 8\nDEL 7\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	<-entered // SET 8 applied, DEL 7 pending
	read("GET 7", "1", "mid-drain")
	read("GET 8", "1", "mid-drain")
	release <- struct{}{}
	if got := writer.readLine(t); got != "1" {
		t.Fatalf("SET 8 → %q, want 1", got)
	}
	if got := writer.readLine(t); got != "1" {
		t.Fatalf("DEL 7 → %q, want 1", got)
	}
	read("GET 7", "0", "post-batch")
}

// TestBypassEpochPinsReleased is the pin-leak test: after thousands of
// bypass reads across several concurrent connections — including reads
// racing the server's shutdown — every epoch slot in every shard's
// set and map domains must be unpinned and each epoch must still be
// able to advance. A leaked pin would wedge reclamation forever.
func TestBypassEpochPinsReleased(t *testing.T) {
	srv, err := New(Options{Shards: 2, Set: "skip-epoch", Map: "epoch", Txn: "off"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	const conns, reads = 6, 200
	var wg sync.WaitGroup
	for id := 0; id < conns; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Errorf("client %d dial: %v", id, err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			w := bufio.NewWriter(conn)
			// Seed some state so the reads chase real nodes.
			for i := 0; i < 8; i++ {
				fmt.Fprintf(w, "SET %d\nHSET key:%d %d\n", i, i, id)
			}
			for i := 0; i < reads; i++ {
				fmt.Fprintf(w, "GET %d\nHGET key:%d\n", i%16, i%16)
			}
			if err := w.Flush(); err != nil {
				t.Errorf("client %d flush: %v", id, err)
				return
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			for i := 0; i < 8*2+reads*2; i++ {
				if _, err := r.ReadString('\n'); err != nil {
					t.Errorf("client %d reply %d: %v", id, i, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	var domains []*epoch.Domain
	for _, sh := range srv.eng.allShards() {
		switch s := sh.set.(type) {
		case *list.EpochList:
			domains = append(domains, s.Domain())
		case *skiplist.EpochSkipList:
			domains = append(domains, s.Domain())
		default:
			t.Fatalf("shard set backend %T has no epoch domain", sh.set)
		}
		m, ok := sh.dict.(*strmap.EpochMap)
		if !ok {
			t.Fatalf("shard map backend %T is not the epoch map", sh.dict)
		}
		domains = append(domains, m.Domain())
	}
	if len(domains) != 4 {
		t.Fatalf("found %d epoch domains, want 4 (2 shards × set+map)", len(domains))
	}
	for i, d := range domains {
		if pins := d.ActivePins(); pins != 0 {
			t.Errorf("domain %d: %d pins still active after shutdown", i, pins)
		}
		before := d.Epoch()
		if !d.TryAdvance() {
			t.Errorf("domain %d: TryAdvance failed after quiescence", i)
		} else if got := d.Epoch(); got != before+1 {
			t.Errorf("domain %d: epoch %d after advance, want %d", i, got, before+1)
		}
	}
}
