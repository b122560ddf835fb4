package txn

import "amp/internal/stm"

// tl2Keyspace backs the keyspace with the lock-based TL2-style engine:
// commit-time versioned write locks taken in tvar-id order, so an EXEC
// touching keys on many server shards commits atomically without any
// coordination between the shards themselves.
type tl2Keyspace struct {
	stm *stm.STM
	dir dir[stm.TVar[cell]]
	ctr *stm.TVar[int64]
}

func newTL2() *tl2Keyspace {
	return &tl2Keyspace{stm: stm.New(), ctr: stm.NewTVar[int64](0)}
}

func (k *tl2Keyspace) cellOf(key string) *stm.TVar[cell] {
	return k.dir.getOrCreate(key, func() *stm.TVar[cell] {
		v := stm.NewTVar(cell{})
		return v
	})
}

// Get is the read-only fast path: a key with no tvar has never been
// written (linearizes at the directory lookup), and TVar.Load returns a
// whole committed cell atomically.
func (k *tl2Keyspace) Get(key string) (int64, bool) {
	c := k.dir.get(key)
	if c == nil {
		return 0, false
	}
	v := c.Load()
	return v.v, v.present
}

func (k *tl2Keyspace) Set(key string, v int64) bool {
	c := k.cellOf(key)
	var inserted bool
	k.stm.Atomic(func(tx *stm.Tx) {
		inserted = !c.Get(tx).present
		c.Set(tx, cell{v: v, present: true})
	})
	return inserted
}

func (k *tl2Keyspace) Del(key string) bool {
	c := k.dir.get(key)
	if c == nil {
		return false
	}
	var removed bool
	k.stm.Atomic(func(tx *stm.Tx) {
		removed = c.Get(tx).present
		if removed {
			c.Set(tx, cell{})
		}
	})
	return removed
}

func (k *tl2Keyspace) Incr(key string, delta int64) int64 {
	c := k.cellOf(key)
	var out int64
	k.stm.Atomic(func(tx *stm.Tx) {
		out = c.Get(tx).v + delta // absent reads as 0
		c.Set(tx, cell{v: out, present: true})
	})
	return out
}

func (k *tl2Keyspace) Inc() int64 {
	var old int64
	k.stm.Atomic(func(tx *stm.Tx) {
		old = k.ctr.Get(tx)
		k.ctr.Set(tx, old+1)
	})
	return old
}

func (k *tl2Keyspace) Counter() int64 { return k.ctr.Load() }

// Range enumerates present keys with their committed values; see
// Keyspace.Range for the consistency contract.
func (k *tl2Keyspace) Range(f func(key string, v int64) bool) {
	k.dir.each(func(key string, c *stm.TVar[cell]) bool {
		v := c.Load()
		if !v.present {
			return true
		}
		return f(key, v.v)
	})
}

// SetCounter overwrites the counter (snapshot restore).
func (k *tl2Keyspace) SetCounter(v int64) {
	k.stm.Atomic(func(tx *stm.Tx) { k.ctr.Set(tx, v) })
}

func (k *tl2Keyspace) Exec(ops []Op) []Result {
	// Every keyed op resolves its key's tvar — including keys only read,
	// and keys that do not exist yet. A read of an absent key must join
	// the read set of a real tvar or commit-time validation cannot see a
	// concurrent creator. getOrCreate is idempotent, so every retry
	// resolves the same tvar.
	out := make([]Result, len(ops))
	k.stm.Atomic(func(tx *stm.Tx) {
		for i, op := range ops {
			switch op.Kind {
			case Get:
				c := k.cellOf(op.Key).Get(tx)
				out[i] = Result{Val: c.v, Flag: c.present}
			case Set:
				cv := k.cellOf(op.Key)
				out[i] = Result{Val: op.Val, Flag: !cv.Get(tx).present}
				cv.Set(tx, cell{v: op.Val, present: true})
			case Del:
				cv := k.cellOf(op.Key)
				c := cv.Get(tx)
				out[i] = Result{Flag: c.present}
				if c.present {
					cv.Set(tx, cell{})
				}
			case Incr:
				cv := k.cellOf(op.Key)
				v := cv.Get(tx).v + op.Val
				out[i] = Result{Val: v, Flag: true}
				cv.Set(tx, cell{v: v, present: true})
			case CtrInc:
				old := k.ctr.Get(tx)
				out[i] = Result{Val: old}
				k.ctr.Set(tx, old+1)
			case CtrRead:
				out[i] = Result{Val: k.ctr.Get(tx)}
			}
		}
	})
	return out
}

func (k *tl2Keyspace) Commits() int64 { return k.stm.Commits() }
func (k *tl2Keyspace) Aborts() int64  { return k.stm.Aborts() }
