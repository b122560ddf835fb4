package stm

import (
	"cmp"
	"slices"
	"sync"
	"testing"
)

// assertEmpty fails if the descriptor fn was handed still carries entries
// from an earlier attempt or an earlier Atomic call.
func assertEmpty(t *testing.T, tx *Tx) {
	t.Helper()
	if len(tx.reads) != 0 || len(tx.writes) != 0 || len(tx.index) != 0 {
		t.Errorf("descriptor not empty: %d reads, %d writes, %d indexed",
			len(tx.reads), len(tx.writes), len(tx.index))
	}
}

// TestRetryLeavesNoEntries: an attempt that stages writes past the index
// threshold and then aborts hands its retry, and the next Atomic, an
// empty descriptor, and none of its staged values commit.
func TestRetryLeavesNoEntries(t *testing.T) {
	s := New()
	vars := make([]*TVar[int], indexThreshold+4)
	for i := range vars {
		vars[i] = NewTVar(i)
	}
	attempts := 0
	s.Atomic(func(tx *Tx) {
		assertEmpty(t, tx)
		attempts++
		for _, v := range vars {
			v.Set(tx, v.Get(tx)+100)
		}
		if attempts == 1 {
			tx.Retry()
		}
	})
	s.Atomic(func(tx *Tx) {
		assertEmpty(t, tx)
		if got := vars[0].Get(tx); got != 100 {
			t.Errorf("vars[0] = %d, want 100 (one committed +100)", got)
		}
	})
	if attempts != 2 || s.Aborts() != 1 {
		t.Fatalf("attempts = %d, aborts = %d, want 2 and 1", attempts, s.Aborts())
	}
	for i, v := range vars {
		if got := v.Load(); got != i+100 {
			t.Fatalf("vars[%d] = %d, want %d", i, got, i+100)
		}
	}
}

// TestUserPanicLeavesNoEntries: an Atomic that ends in a user panic after
// reads and writes publishes nothing and leaves nothing for the next one.
func TestUserPanicLeavesNoEntries(t *testing.T) {
	s := New()
	a, b := NewTVar(1), NewTVar(2)
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		s.Atomic(func(tx *Tx) {
			b.Set(tx, a.Get(tx)+b.Get(tx))
			a.Set(tx, 0)
			panic("boom")
		})
	}()
	s.Atomic(func(tx *Tx) {
		assertEmpty(t, tx)
		if av, bv := a.Get(tx), b.Get(tx); av != 1 || bv != 2 {
			t.Errorf("after panic a, b = %d, %d, want 1, 2", av, bv)
		}
	})
	if s.Commits() != 1 {
		t.Fatalf("Commits = %d, want 1 (the panicking Atomic must not commit)", s.Commits())
	}
}

// TestRepeatedSetOneVersion: two Sets of one TVar stage one entry, read
// back as the second value, and commit it with a single clock bump.
func TestRepeatedSetOneVersion(t *testing.T) {
	s := New()
	x := NewTVar(0)
	before := s.clock.Load()
	s.Atomic(func(tx *Tx) {
		x.Set(tx, 1)
		x.Set(tx, 2)
		if got := x.Get(tx); got != 2 {
			t.Errorf("Get after two Sets = %d, want 2", got)
		}
		if len(tx.writes) != 1 {
			t.Errorf("write set holds %d entries, want 1", len(tx.writes))
		}
	})
	if got := x.Load(); got != 2 {
		t.Fatalf("Load = %d, want 2", got)
	}
	if after := s.clock.Load(); after != before+1 {
		t.Fatalf("clock moved %d → %d, want one bump", before, after)
	}
	if meta := x.meta.Load(); meta != before+1 {
		t.Fatalf("x version = %#x, want %d", meta, before+1)
	}
}

// TestIndexedWriteSet: a transaction writing more TVars than the index
// threshold, in an order unrelated to their ids, reads its own writes
// (first and repeated Sets alike) and commits them in id order.
func TestIndexedWriteSet(t *testing.T) {
	s := New()
	const n = 4*indexThreshold + 1
	vars := make([]*TVar[int], n)
	for i := range vars {
		vars[i] = NewTVar(0)
	}
	perm := make([]int, n) // a stride permutation: ids out of order
	for i := range perm {
		perm[i] = (i * 7) % n
	}
	tx := &Tx{stm: s, readVersion: s.clock.Load()}
	for k, i := range perm {
		vars[i].Set(tx, i)
		vars[i].Set(tx, vars[i].Get(tx)+1000)
		for _, j := range perm[:k+1] {
			if got := vars[j].Get(tx); got != j+1000 {
				t.Fatalf("after %d writes, vars[%d] reads %d, want %d", k+1, j, got, j+1000)
			}
		}
	}
	if len(tx.writes) != n || len(tx.index) != n {
		t.Fatalf("write set %d, index %d, want %d each", len(tx.writes), len(tx.index), n)
	}
	if !tx.commit() {
		t.Fatal("uncontended commit failed")
	}
	if !slices.IsSortedFunc(tx.writes, func(a, b write) int { return cmp.Compare(a.v.order(), b.v.order()) }) {
		t.Fatal("write set not committed in id order")
	}
	for i, v := range vars {
		if got := v.Load(); got != i+1000 {
			t.Fatalf("vars[%d] = %d, want %d", i, got, i+1000)
		}
		if v.meta.Load() != s.clock.Load() {
			t.Fatalf("vars[%d] version %#x, clock %d: still locked or not published", i, v.meta.Load(), s.clock.Load())
		}
	}
}

// TestPublishedValueImmutable: the *T a reader obtained through the
// published pointer never changes, neither when a later transaction Sets
// the TVar twice (overwriting its staged copy) nor when one aborts after
// staging. Under -race the concurrent half also proves no committed value
// is written while Load may dereference it.
func TestPublishedValueImmutable(t *testing.T) {
	s := New()
	x := NewTVar([4]int{1, 2, 3, 4})
	seen := x.val.Load()
	want := *seen
	retried := false
	s.Atomic(func(tx *Tx) {
		x.Set(tx, [4]int{9, 9, 9, 9})
		x.Set(tx, [4]int{7, 7, 7, 7})
		if !retried {
			retried = true
			tx.Retry()
		}
	})
	if *seen != want {
		t.Fatalf("published value changed to %v, want %v", *seen, want)
	}
	if got := x.Load(); got != [4]int{7, 7, 7, 7} {
		t.Fatalf("Load = %v", got)
	}

	const writers, each = 2, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Atomic(func(tx *Tx) {
					v := x.Get(tx)
					v[0]++
					x.Set(tx, v)
					v[1] = v[0]
					x.Set(tx, v) // repeated Set of a staged value
				})
			}
		}()
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := x.val.Load()
			first := *p
			if first[0] != first[1] {
				t.Errorf("torn published value %v", first)
				return
			}
			if again := *p; again != first {
				t.Errorf("published value changed under a reader: %v → %v", first, again)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	if got := x.Load()[0]; got != 7+writers*each {
		t.Fatalf("x[0] = %d, want %d", got, 7+writers*each)
	}
}
