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

// answerBytes is the heap a cached answer holds, for the cache's byte
// budget: the cachedAnswer, its slice of bindings and each binding's
// map. A binding's keys are the read's variable names and its values
// interned constant names, both shared, so only the map is charged.
func answerBytes(bs []Binding) int64 {
	n := int64(32 + 8*cap(bs))
	for _, b := range bs {
		n += bindingBytes(len(b))
	}
	return n
}

// bindingBytes is the heap a map[string]string of n entries holds: a
// 48-byte header and, once it has an entry, groups of eight slots, one
// key string and one value string each (288 bytes as allocated), enough
// of them to keep the load at 7/8 or less. Past eight entries the groups
// are a power of two, behind a table and a directory (40 bytes).
func bindingBytes(n int) int64 {
	switch {
	case n == 0:
		return 48
	case n <= 8:
		return 48 + 288
	}
	groups := int64(1)
	for groups*7 < int64(n) {
		groups *= 2
	}
	return 88 + 288*groups
}
