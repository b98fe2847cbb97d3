package hypo

import (
	"hypodatalog/internal/ast"
	"hypodatalog/internal/symbols"
)

// CacheStatus reports how a Pool read was served when the versioned
// answer cache (Options.CacheBytes) is enabled.
type CacheStatus int

const (
	// CacheBypass: no cache is configured for this pool.
	CacheBypass CacheStatus = iota
	// CacheMiss: this call ran the evaluation (and stored the answer).
	CacheMiss
	// CacheHit: the answer was served from a stored entry; no engine was
	// leased and no evaluation ran.
	CacheHit
	// CacheCoalesced: an identical query was already evaluating; this
	// call waited for it and shares its answer — N concurrent identical
	// misses cost one engine lease.
	CacheCoalesced
)

func (s CacheStatus) String() string {
	switch s {
	case CacheMiss:
		return "miss"
	case CacheHit:
		return "hit"
	case CacheCoalesced:
		return "coalesced"
	default:
		return "bypass"
	}
}

// ReadInfo describes how one pool read was served: the data version the
// answer is valid at, how the cache was involved, and the evaluation
// work this particular call performed (zero when the answer came from
// the cache or from another caller's coalesced evaluation).
type ReadInfo struct {
	DataVersion uint64
	Cache       CacheStatus
	Stats       Stats
}

// cachedAnswer is the value stored in the answer cache: a read's
// materialised binding set (for a ground read, one empty binding when it
// holds), stamped with the data version it was computed at. An entry's
// version always equals its key's version — answers computed at a
// version other than the one the key was built from are returned to
// callers but never stored (see Computed.Store).
type cachedAnswer struct {
	bindings []Binding
	version  uint64

	// preds are the predicates the answer depends on from the outside: the
	// query's root predicate plus any hypothetically added/deleted ones.
	// On a commit the pool carries the entry forward to the new version
	// when none of them fall inside the commit's affected cone — the
	// answer is then version-stable by construction. nil means "unknown;
	// never carry".
	preds []symbols.Pred
}

// premisePreds collects the predicates a compiled premise reads at the
// root: the queried atom's predicate plus every hypothetical add/del,
// and any extra atoms (AskUnder's outer adds). Reverse-closed cones make
// this sufficient for carry-forward: if none of these predicates are in
// a commit's cone, no changed predicate is reachable from the query.
func premisePreds(cpr ast.CPremise, extra []ast.CAtom) []symbols.Pred {
	seen := make(map[symbols.Pred]bool, 1+len(cpr.Adds)+len(cpr.Dels)+len(extra))
	out := make([]symbols.Pred, 0, 1+len(cpr.Adds)+len(cpr.Dels)+len(extra))
	add := func(p symbols.Pred) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	add(cpr.Atom.Pred)
	for _, a := range cpr.Adds {
		add(a.Pred)
	}
	for _, a := range cpr.Dels {
		add(a.Pred)
	}
	for _, a := range extra {
		add(a.Pred)
	}
	return out
}

// boolAnswerBytes is the charged size of a cached ground answer.
const boolAnswerBytes = 16

// bindingsBytes estimates the heap footprint of a materialised binding
// set for the cache's byte budget.
func bindingsBytes(bs []Binding) int64 {
	n := int64(24)
	for _, b := range bs {
		n += 48
		for k, v := range b {
			n += int64(len(k)+len(v)) + 32
		}
	}
	return n
}
