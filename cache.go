package hypo

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
