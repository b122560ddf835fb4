// Package stm implements the Chapter 18 software transactional memory in
// the style the chapter converges on (and TL2, its chapter-notes
// reference): a global version clock, per-location versioned write-locks,
// invisible optimistic reads validated against the clock, and commit-time
// locking with write-back.
//
// The unit of transactional state is the TVar, the book's atomic object.
// Transactions run inside STM.Atomic, which re-executes the function until
// it commits:
//
//	x := stm.NewTVar(0)
//	s.Atomic(func(tx *stm.Tx) {
//		x.Set(tx, x.Get(tx)+1)
//	})
//
// Aborts propagate as a private panic that Atomic catches — user code
// simply stops at the failed Get/Set, so a transaction never observes an
// inconsistent snapshot (the "zombie" problem of §18.3 cannot arise).
//
// Descriptor lifetime: the *Tx passed to fn is taken from a pool once per
// Atomic call and reused, emptied, by every retry of that call; it goes
// back to the pool when Atomic returns. fn must not retain tx, or any
// value derived from it, past its own return — no *Tx outlives its Atomic
// call.
//
// Publish by pointer: Set stages a value in a *T allocated once per
// written TVar per attempt, and a repeated Set overwrites that *T in
// place. Commit publishes the same pointer. A *T is written only while it
// is staged; once published it is never mutated again, which is what lets
// TVar.Load dereference the current pointer with no validation at all.
package stm

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"amp/internal/spin"
)

// STM is an isolated transactional universe: a global version clock plus
// commit/abort statistics. TVars from different STM instances must not be
// mixed in one transaction.
type STM struct {
	clock   atomic.Uint64
	commits atomic.Int64
	aborts  atomic.Int64
}

// New returns a fresh STM universe.
func New() *STM {
	return &STM{}
}

// Commits reports the number of committed transactions.
func (s *STM) Commits() int64 { return s.commits.Load() }

// Aborts reports the number of aborted-and-retried transaction attempts.
func (s *STM) Aborts() int64 { return s.aborts.Load() }

// lockedBit marks a version word held by a committing transaction.
const lockedBit = 1 << 63

// tvarIDs hands every TVar a unique identity for deadlock-free commit-time
// lock ordering.
var tvarIDs atomic.Uint64

// tvar is the type-erased view of a TVar that Tx works with.
type tvar interface {
	metaWord() *atomic.Uint64
	publish(staged any, wv uint64)
	order() uint64
}

// TVar is a transactional variable holding a value of type T.
type TVar[T any] struct {
	id   uint64
	meta atomic.Uint64 // version | lockedBit
	val  atomic.Pointer[T]
}

// NewTVar returns a TVar initialized to init (version 0, unlocked).
func NewTVar[T any](init T) *TVar[T] {
	v := &TVar[T]{id: tvarIDs.Add(1)}
	v.val.Store(&init)
	return v
}

func (v *TVar[T]) metaWord() *atomic.Uint64 { return &v.meta }
func (v *TVar[T]) order() uint64            { return v.id }

// publish installs the staged *T and releases the lock by publishing the
// new version (write-back, then unlock, in one store).
func (v *TVar[T]) publish(staged any, wv uint64) {
	v.val.Store(staged.(*T))
	v.meta.Store(wv) // release: wv has lockedBit clear
}

// Load reads the value non-transactionally. It is safe at any time but
// sees only committed values; use it for quiescent inspection. It needs
// no validation because a published *T is never written again.
func (v *TVar[T]) Load() T {
	return *v.val.Load()
}

// Get reads the TVar inside a transaction, aborting (and retrying the
// whole transaction) if a consistent value cannot be proven.
func (v *TVar[T]) Get(tx *Tx) T {
	if i := tx.find(v); i >= 0 {
		return *tx.writes[i].val.(*T)
	}
	pre := v.meta.Load()
	value := v.val.Load()
	post := v.meta.Load()
	if pre != post || post&lockedBit != 0 || post > tx.readVersion {
		tx.abort()
	}
	tx.reads = append(tx.reads, v)
	return *value
}

// Set stages a write to the TVar; it becomes visible on commit.
func (v *TVar[T]) Set(tx *Tx, value T) {
	if i := tx.find(v); i >= 0 {
		*tx.writes[i].val.(*T) = value // still staged: never published
		return
	}
	p := new(T) // the one allocation per written value; commit publishes it
	*p = value
	tx.stage(v, p)
}

// write is one staged write: the TVar and the *T that commit publishes.
type write struct {
	v   tvar
	val any
}

// indexThreshold is the write-set size up to which find scans linearly;
// past it the Tx keeps a map index so a 128-write transaction does not
// pay a quadratic lookup.
const indexThreshold = 8

// Tx is one transaction descriptor. It must only be used within the
// Atomic call that handed it to fn (see the package doc).
type Tx struct {
	stm         *STM
	readVersion uint64
	reads       []tvar
	writes      []write
	index       map[tvar]int // position in writes; kept only past indexThreshold
}

// txPool recycles descriptors, with their read/write capacity, across
// Atomic calls.
var txPool = sync.Pool{New: func() any { return new(Tx) }}

// find returns v's position in the write set, or -1.
func (tx *Tx) find(v tvar) int {
	if len(tx.writes) > indexThreshold {
		if i, ok := tx.index[v]; ok {
			return i
		}
		return -1
	}
	for i := range tx.writes {
		if tx.writes[i].v == v {
			return i
		}
	}
	return -1
}

// stage appends a write of a TVar not yet in the write set.
func (tx *Tx) stage(v tvar, p any) {
	tx.writes = append(tx.writes, write{v: v, val: p})
	n := len(tx.writes)
	switch {
	case n == indexThreshold+1:
		if tx.index == nil {
			tx.index = make(map[tvar]int)
		}
		for i, w := range tx.writes {
			tx.index[w.v] = i
		}
	case n > indexThreshold+1:
		tx.index[v] = n - 1
	}
}

// reset empties the descriptor, keeping its capacity. Entries are zeroed
// so a pooled Tx pins neither TVars nor staged values.
func (tx *Tx) reset() {
	if len(tx.writes) > indexThreshold {
		clear(tx.index)
	}
	clear(tx.reads)
	clear(tx.writes)
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
}

// abortSignal is the private panic payload that unwinds an attempt.
type abortSignal struct{}

func (tx *Tx) abort() {
	panic(abortSignal{})
}

// Retry aborts the current attempt unconditionally; combined with an
// updated precondition inside the transaction function this gives a crude
// "retry when state changes" (the transaction re-runs from scratch).
func (tx *Tx) Retry() {
	tx.abort()
}

// Atomic runs fn transactionally, retrying with randomized backoff until
// an attempt commits. fn must confine its shared-state access to Get/Set
// on TVars, must be safe to re-execute, and must not retain tx.
func (s *STM) Atomic(fn func(tx *Tx)) {
	tx := txPool.Get().(*Tx)
	tx.stm = s
	var backoff *spin.Backoff
	for !tx.attempt(fn) {
		s.aborts.Add(1)
		if backoff == nil {
			backoff = spin.NewBackoff(time.Microsecond, 128*time.Microsecond)
		}
		backoff.Pause()
	}
	s.commits.Add(1)
	tx.reset()
	tx.stm = nil
	txPool.Put(tx)
}

// attempt runs fn once on an emptied descriptor, reporting whether it
// committed. A user panic propagates out of Atomic and the descriptor is
// dropped, not pooled; the next attempt anywhere starts from reset.
func (tx *Tx) attempt(fn func(tx *Tx)) (committed bool) {
	tx.reset()
	tx.readVersion = tx.stm.clock.Load()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); ok {
				return // aborted attempt; Atomic will retry
			}
			panic(r) // user panic: propagate
		}
	}()
	fn(tx)
	return tx.commit()
}

// commit implements the TL2 commit protocol: lock the write set in id
// order, take a write version, validate the read set, write back, release.
func (tx *Tx) commit() bool {
	if len(tx.writes) == 0 {
		// Read-only transactions validated every read against readVersion
		// already; nothing to publish.
		return true
	}
	// Sorting invalidates the index's positions; from here on membership
	// is tested by binary search on order (holds).
	slices.SortFunc(tx.writes, func(a, b write) int { return cmp.Compare(a.v.order(), b.v.order()) })
	for i, w := range tx.writes {
		meta := w.v.metaWord()
		cur := meta.Load()
		if cur&lockedBit != 0 || cur > tx.readVersion || !meta.CompareAndSwap(cur, cur|lockedBit) {
			tx.unlock(i)
			return false
		}
	}
	writeVersion := tx.stm.clock.Add(1)
	// Validate reads: unlocked (unless we hold the lock) and not newer than
	// our snapshot.
	for _, r := range tx.reads {
		cur := r.metaWord().Load()
		if cur&lockedBit != 0 && tx.holds(r) {
			cur &^= lockedBit
		}
		if cur&lockedBit != 0 || cur > tx.readVersion {
			tx.unlock(len(tx.writes))
			return false
		}
	}
	for _, w := range tx.writes {
		w.v.publish(w.val, writeVersion)
	}
	return true
}

// unlock releases the locks of the first n (sorted) writes.
func (tx *Tx) unlock(n int) {
	for _, w := range tx.writes[:n] {
		meta := w.v.metaWord()
		meta.Store(meta.Load() &^ lockedBit)
	}
}

// holds reports whether v is in the sorted write set, i.e. whether this
// committing transaction holds v's lock.
func (tx *Tx) holds(v tvar) bool {
	_, ok := slices.BinarySearchFunc(tx.writes, v.order(), func(w write, id uint64) int {
		return cmp.Compare(w.v.order(), id)
	})
	return ok
}
