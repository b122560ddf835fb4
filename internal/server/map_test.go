package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"amp/internal/core"
	"amp/internal/strmap"
)

func TestServeMapFamily(t *testing.T) {
	srv := startServer(t, Options{Shards: 4})
	c := dial(t, srv)

	c.expect(t, "HSET user:1 42", "1")
	c.expect(t, "HSET user:1 43", "0") // overwrite
	c.expect(t, "HGET user:1", "43")
	c.expect(t, "HGET user:2", "EMPTY")
	c.expect(t, "HSET user:2 -7", "1")
	c.expect(t, "HGET user:2", "-7")
	c.expect(t, "HDEL user:1", "1")
	c.expect(t, "HDEL user:1", "0")
	c.expect(t, "HGET user:1", "EMPTY")
	c.expect(t, "HGET user:2", "-7")

	// Keys are case-sensitive even though verbs are not.
	c.expect(t, "hset Key 1", "1")
	c.expect(t, "HSET key 2", "1")
	c.expect(t, "HGET Key", "1")
	c.expect(t, "hget key", "2")

	// Errors keep the connection usable.
	c.expect(t, "HSET", "ERR HSET needs a key and an integer value")
	c.expect(t, "HSET k", "ERR HSET needs a key and an integer value")
	c.expect(t, "HSET k v", `ERR bad integer "v"`)
	c.expect(t, "HGET", "ERR HGET needs exactly one key")
	c.expect(t, "HGET a b", "ERR HGET needs exactly one key")
	c.expect(t, "HDEL", "ERR HDEL needs exactly one key")
	c.expect(t, "HGET key", "2")

	c.expect(t, "QUIT", "OK")
}

// shardOf routes a string key exactly as the data plane does.
func shardOf(key string, shards int) int {
	return keyShard(Command{Op: OpHGet, Key: key}.ShardKey(), shards)
}

// sameShardKeys returns n distinct keys that all route to one shard.
func sameShardKeys(t *testing.T, shards, n int) []string {
	t.Helper()
	target := -1
	var keys []string
	for i := 0; len(keys) < n && i < 100_000; i++ {
		k := fmt.Sprintf("k%03d", i)
		si := shardOf(k, shards)
		if target < 0 {
			target = si
		}
		if si == target {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("found only %d/%d keys for shard %d of %d", len(keys), n, target, shards)
	}
	return keys
}

// TestShardKeyRouting pins the string-key routing contract: ShardKey is
// the FNV-1a 64 hash of the key (known-answer checked), identical for
// every map verb, and therefore stable — the same key lands on the same
// shard on every lookup, for any shard count.
func TestShardKeyRouting(t *testing.T) {
	// FNV-1a known answers, as seen through the routing path.
	for _, v := range []struct {
		key  string
		hash uint64
	}{
		{"a", 0xaf63dc4c8601ec8c},
		{"foobar", 0x85944171f73967e8},
	} {
		if got := (Command{Op: OpHGet, Key: v.key}).ShardKey(); got != int64(v.hash) {
			t.Errorf("ShardKey(%q) = %#x, want FNV-1a %#x", v.key, uint64(got), v.hash)
		}
	}

	keys := []string{"a", "user:1", "user:2", "K", "k", "0", "-1"}
	for _, key := range keys {
		hset := Command{Op: OpHSet, Key: key, Arg: 99}.ShardKey()
		hget := Command{Op: OpHGet, Key: key}.ShardKey()
		hdel := Command{Op: OpHDel, Key: key}.ShardKey()
		if hset != hget || hget != hdel {
			t.Errorf("ShardKey(%q) differs by verb: %d/%d/%d", key, hset, hget, hdel)
		}
		if hash := int64(strmap.Hash(key)); hget != hash {
			t.Errorf("ShardKey(%q) = %d, want hash %d", key, hget, hash)
		}
		for _, shards := range []int{1, 2, 3, 4, 8, 16} {
			first := shardOf(key, shards)
			if first < 0 || first >= shards {
				t.Fatalf("shardOf(%q, %d) = %d, out of range", key, shards, first)
			}
			for rep := 0; rep < 3; rep++ {
				if got := shardOf(key, shards); got != first {
					t.Fatalf("shardOf(%q, %d) unstable: %d then %d", key, shards, first, got)
				}
			}
		}
	}

	// Int-keyed commands still route by their integer argument.
	if got := (Command{Op: OpSet, Arg: 42}).ShardKey(); got != 42 {
		t.Errorf("ShardKey(SET 42) = %d, want 42", got)
	}
}

// TestShardCollisionPairIndependent forces two distinct keys onto one
// shard of a live server and checks they resolve independently inside
// that shard's dictionary.
func TestShardCollisionPairIndependent(t *testing.T) {
	const shards = 4
	keys := sameShardKeys(t, shards, 2)
	srv := startServer(t, Options{Shards: shards})
	c := dial(t, srv)

	c.expect(t, fmt.Sprintf("HSET %s 1", keys[0]), "1")
	c.expect(t, fmt.Sprintf("HSET %s 2", keys[1]), "1")
	c.expect(t, "HGET "+keys[0], "1")
	c.expect(t, "HGET "+keys[1], "2")
	c.expect(t, fmt.Sprintf("HSET %s 10", keys[0]), "0")
	c.expect(t, "HGET "+keys[1], "2")
	c.expect(t, "HDEL "+keys[0], "1")
	c.expect(t, "HGET "+keys[0], "EMPTY")
	c.expect(t, "HGET "+keys[1], "2")
}

// mapHistoryClient replays a random HSET/HGET/HDEL mix over the given key
// alphabet through one pipelined connection, recording every operation:
// Call when the command is sent, Done when its reply is read.
// Goroutine-safe (returns errors, no t.Fatal).
func mapHistoryClient(addr string, rec *core.Recorder, me core.ThreadID,
	keys []string, depth, ops, id int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	rng := rand.New(rand.NewSource(int64(id)*7919 + 1))

	type sent struct {
		pend *core.PendingOp
		act  string
	}
	window := make([]sent, 0, depth)
	for next := 0; next < ops; {
		window = window[:0]
		for next < ops && len(window) < depth {
			key := keys[rng.Intn(len(keys))]
			switch r := rng.Intn(10); {
			case r < 5: // HSET with a client-unique value
				v := int64(id*100_000 + next)
				window = append(window, sent{rec.Call(me, "set", core.MapSetInput{K: key, V: v}), "set"})
				fmt.Fprintf(w, "HSET %s %d\n", key, v)
			case r < 8:
				window = append(window, sent{rec.Call(me, "get", key), "get"})
				fmt.Fprintf(w, "HGET %s\n", key)
			default:
				window = append(window, sent{rec.Call(me, "del", key), "del"})
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
			case s.act == "get" && line == "EMPTY":
				s.pend.Done(core.Empty)
			case s.act == "get":
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
				return fmt.Errorf("%s reply %q, want 1 or 0", s.act, line)
			}
		}
	}
	return nil
}

// testServerLinearizableMap records a concurrent HSET/HGET/HDEL history
// through a live pipelined server and checks it against the sequential
// map model, with the same budget-and-re-record discipline as
// testServerLinearizable (see there for why an exhausted search proves
// nothing and must re-record rather than hang).
func testServerLinearizableMap(t *testing.T, opts Options, keys []string) {
	const rounds, perRound, opsEach = 6, 2, 85 // 12 clients, 1020-op histories
	depths := []int{1, 3}
	const budget = 2_000_000
	const attempts = 6

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
					err := mapHistoryClient(srv.Addr().String(), rec, core.ThreadID(id),
						keys, depth, opsEach, id)
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
		res := core.CheckBudget(core.MapModel(), h, budget)
		switch {
		case res.Exhausted:
			t.Logf("map: attempt %d/%d exhausted the %d-step budget on %d ops; re-recording",
				attempt, attempts, budget, len(h))
		case !res.Linearizable:
			t.Fatalf("map: %d-op server history is not linearizable", len(h))
		default:
			return // linearizable, witness found
		}
	}
	t.Fatalf("map: checker budget exhausted on %d consecutive recordings", attempts)
}

// TestServerLinearizableMap checks HSET/HGET/HDEL histories against the
// sequential map model for every -map backend. The five-key alphabet over
// four shards guarantees (pigeonhole) that at least two keys contend on
// one shard's dictionary.
func TestServerLinearizableMap(t *testing.T) {
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for _, name := range MapBackends() {
		t.Run(name, func(t *testing.T) {
			// Txn off: the harness is checking the named dictionary
			// backend, not the transactional keyspace (txn_test.go
			// covers the keyspace-backed histories).
			testServerLinearizableMap(t, Options{Shards: 4, Map: name, Txn: "off"}, keys)
		})
	}
}

// TestServerLinearizableMapShardCollision repeats the harness with an
// alphabet computed to collide: every key routes to the same shard, so
// the whole history exercises one dictionary's chain resolution.
func TestServerLinearizableMapShardCollision(t *testing.T) {
	const shards = 4
	keys := sameShardKeys(t, shards, 3)
	for _, name := range MapBackends() {
		t.Run(name, func(t *testing.T) {
			testServerLinearizableMap(t, Options{Shards: shards, Map: name, Txn: "off"}, keys)
		})
	}
}

// TestPipelinedStringRunsBatch is the regression test for string-key run
// batching: a pipelined burst of map commands whose keys share a shard
// (plus an unkeyed command riding along) must travel to the shard as ONE
// combined run — visible as a single shard.batch observation — not be
// broken into per-command batches. Before key extraction was factored
// into Command.ShardKey, string ops pinned runs on the raw integer
// argument and every HSET cut the run.
func TestPipelinedStringRunsBatch(t *testing.T) {
	// Bypass off: with it on, the HGETs would (correctly) skip the
	// shard lock and the run under test would shrink to the writes.
	srv, err := New(Options{Shards: 4, ReadBypass: "off"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	keys := sameShardKeys(t, 4, 6)
	var items []lineItem
	for i, k := range keys {
		items = append(items, parseItem([]byte(fmt.Sprintf("HSET %s %d", k, i))))
	}
	items = append(items, parseItem([]byte("INC"))) // unkeyed: rides along
	for _, k := range keys {
		items = append(items, parseItem([]byte("HGET "+k)))
	}

	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if !srv.serveBatch(w, items, &txnState{}) {
		t.Fatal("serveBatch reported connection close")
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	if c := srv.eng.batchSizes.Count(); c != 1 {
		t.Errorf("shard.batch count = %d, want 1 (string run was split)", c)
	}
	if s := srv.eng.batchSizes.Sum(); s != int64(len(items)) {
		t.Errorf("shard.batch sum = %d, want %d", s, len(items))
	}

	var want []string
	for range keys {
		want = append(want, "1") // each HSET inserts
	}
	want = append(want, "0") // first INC ticket
	for i := range keys {
		want = append(want, strconv.Itoa(i))
	}
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("got %d replies %q, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("reply %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestPipelinedBypassReplyOrder is the bypass twin of
// TestPipelinedStringRunsBatch: the same burst with the read bypass on
// (default txn=tl2 makes every HGET bypass-capable) must still answer in
// exact line order — interleaving batch replies (HSET, INC) with
// bypass replies (HGET) — while only the mutations travel to the shard:
// one combined run of 7 (6 HSETs + INC), the reads served in place.
func TestPipelinedBypassReplyOrder(t *testing.T) {
	srv, err := New(Options{Shards: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	keys := sameShardKeys(t, 4, 6)
	var items []lineItem
	var want []string
	for i, k := range keys {
		// Alternate writes and reads so every read is preceded by an
		// open run it must flush, and followed by more writes it must
		// not reorder past.
		items = append(items, parseItem([]byte(fmt.Sprintf("HSET %s %d", k, i))))
		want = append(want, "1")
		items = append(items, parseItem([]byte("HGET "+k)))
		want = append(want, strconv.Itoa(i))
	}
	items = append(items, parseItem([]byte("INC")))
	want = append(want, "0")
	items = append(items, parseItem([]byte("HGET "+keys[0])))
	want = append(want, "0")

	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if !srv.serveBatch(w, items, &txnState{}) {
		t.Fatal("serveBatch reported connection close")
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("got %d replies %q, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("reply %d = %q, want %q", i, got[i], want[i])
		}
	}
	if n := srv.eng.readBypass.Value(); n != int64(len(keys)+1) {
		t.Errorf("read.bypass = %d, want %d (every HGET should bypass)", n, len(keys)+1)
	}
	if s := srv.eng.batchSizes.Sum(); s != int64(len(keys)+1) {
		t.Errorf("shard.batch sum = %d, want %d (only mutations ride a batch)", s, len(keys)+1)
	}
}
