// Package symbols interns predicate and constant names to dense integer
// ids. Every other layer of the system works with these ids; strings appear
// only at the parsing and printing boundaries.
//
// A Table is safe for concurrent use: interning takes a write lock,
// lookups and name resolution a read lock. The hot proving loops of the
// engines never touch the Table (they work on pre-interned ids), so the
// locking only costs at compilation and formatting boundaries.
package symbols

import (
	"fmt"
	"sync"
)

// Pred identifies an interned predicate symbol (name plus arity).
type Pred int32

// Const identifies an interned constant symbol.
type Const int32

// Table maps predicate and constant names to dense ids and back.
// The zero value is ready to use. A Table must not be copied after first
// use.
type Table struct {
	mu        sync.RWMutex
	preds     []predInfo
	predIndex map[predKey]Pred

	consts     []string
	constIndex map[string]Const
}

type predKey struct {
	name  string
	arity int
}

type predInfo struct {
	name  string
	arity int
}

// NewTable returns an empty symbol table.
func NewTable() *Table {
	return &Table{
		predIndex:  make(map[predKey]Pred),
		constIndex: make(map[string]Const),
	}
}

// Pred interns a predicate symbol. Predicates are identified by name and
// arity together, so p/1 and p/2 are distinct predicates.
func (t *Table) Pred(name string, arity int) Pred {
	k := predKey{name, arity}
	t.mu.RLock()
	id, ok := t.predIndex[k]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.predIndex == nil {
		t.predIndex = make(map[predKey]Pred)
	}
	if id, ok := t.predIndex[k]; ok {
		return id
	}
	id = Pred(len(t.preds))
	t.preds = append(t.preds, predInfo{name, arity})
	t.predIndex[k] = id
	return id
}

// LookupPred reports the id for name/arity if it has been interned.
func (t *Table) LookupPred(name string, arity int) (Pred, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.predIndex[predKey{name, arity}]
	return id, ok
}

// Const interns a constant symbol.
func (t *Table) Const(name string) Const {
	t.mu.RLock()
	id, ok := t.constIndex[name]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.constIndex == nil {
		t.constIndex = make(map[string]Const)
	}
	if id, ok := t.constIndex[name]; ok {
		return id
	}
	id = Const(len(t.consts))
	t.consts = append(t.consts, name)
	t.constIndex[name] = id
	return id
}

// LookupConst reports the id for name if it has been interned.
func (t *Table) LookupConst(name string) (Const, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.constIndex[name]
	return id, ok
}

// PredName returns the name of an interned predicate.
func (t *Table) PredName(p Pred) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(p) < 0 || int(p) >= len(t.preds) {
		return fmt.Sprintf("?pred%d", int(p))
	}
	return t.preds[p].name
}

// PredArity returns the arity of an interned predicate.
func (t *Table) PredArity(p Pred) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(p) < 0 || int(p) >= len(t.preds) {
		return 0
	}
	return t.preds[p].arity
}

// ConstName returns the name of an interned constant.
func (t *Table) ConstName(c Const) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(c) < 0 || int(c) >= len(t.consts) {
		return fmt.Sprintf("?const%d", int(c))
	}
	return t.consts[c]
}

// NumPreds reports how many predicates have been interned.
func (t *Table) NumPreds() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.preds)
}
