package topdown

import "context"

// Budget is one evaluator's per-query limits — the query's context, its
// goal allowance and its memory meter — and its work ledger. An evaluator
// — a uniform engine, or every PROVE_Σ engine and PROVE_Δ prover of a
// cascade — is built around one Budget and each query begins it afresh
// (Begin), so both describe the whole evaluator, not one component.
//
// Like the engines, a Budget is confined to its evaluator and is not safe
// for concurrent use.
type Budget struct {
	// Max is how many goal expansions one query may run; 0 means no limit.
	Max int64
	// Mem is the evaluator's footprint meter; nil disables accounting and
	// the memory ceiling.
	Mem *MemTracker
	// Stats is the ledger: every component counts its work into it, over
	// the evaluator's lifetime. Its MemBytes stays zero; Work reads the
	// growth off the meter.
	Stats Stats

	begun Stats           // the ledger when the current query began
	depth int             // the current query's deepest proof stack
	ctx   context.Context // the query's, or nil when it cannot be canceled
	ticks int64
}

// ctxCheckInterval is how many ticks pass between context polls. A power
// of two keeps the check a mask-and-branch.
const ctxCheckInterval = 256

// Begin starts a query: the ledger's reading is recorded as its starting
// point, so the goal allowance and the memory meter start afresh, and ctx
// is polled until End. A context that is already done aborts the query
// before any work, with an *AbortError wrapping ErrCanceled or
// ErrDeadline.
func (b *Budget) Begin(ctx context.Context) error {
	b.begun = b.Stats
	b.depth = 0
	b.Mem.Begin()
	b.ctx = nil
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return ContextAbort(err)
	}
	b.ctx = ctx
	return nil
}

// End ends the query Begin started: work outside a query, such as a
// commit's maintenance, polls no context.
func (b *Budget) End() { b.ctx = nil }

// Goal admits one goal expansion, which the caller then counts into the
// ledger. Exactly Max run in a query: the next one aborts with ErrBudget.
// Then the memory ceiling is checked and the expansion ticks.
func (b *Budget) Goal() *AbortError {
	if b.Max > 0 && b.Stats.Goals-b.begun.Goals >= b.Max {
		return &AbortError{Reason: ErrBudget, Limit: b.Max}
	}
	if ae := b.OverMem(); ae != nil {
		return ae
	}
	return b.Tick()
}

// Work returns the current query's work: the ledger less its reading at
// Begin, with MaxDepth the query's deepest proof stack and MemBytes the
// meter's growth since Begin.
func (b *Budget) Work() Stats {
	s := b.Stats.Sub(b.begun)
	s.MaxDepth = b.depth
	s.MemBytes = b.Mem.Grown()
	return s
}

// noteDepth records a proof stack of depth d: the query's gauge, read by
// Work, starts at 0 at Begin, and the ledger's MaxDepth keeps the
// evaluator's lifetime maximum.
func (b *Budget) noteDepth(d int) {
	if d > b.depth {
		b.depth = d
		b.Stats.MaxDepth = max(b.Stats.MaxDepth, d)
	}
}

// Tick counts one step of the query's work — a goal expansion, a Δ-part
// join step, a query instantiation — and every ctxCheckInterval steps
// polls the context, returning an *AbortError wrapping ErrCanceled or
// ErrDeadline once it is done. A nil Budget never stops a query.
func (b *Budget) Tick() *AbortError {
	if b == nil {
		return nil
	}
	if b.ticks++; b.ticks%ctxCheckInterval != 0 || b.ctx == nil {
		return nil
	}
	if err := b.ctx.Err(); err != nil {
		return ContextAbort(err)
	}
	return nil
}

// OverMem returns an *AbortError wrapping ErrMemory once the query has
// grown the memory meter past its ceiling. The evaluators check it where
// they grow the footprint: per goal expansion and per derived atom.
func (b *Budget) OverMem() *AbortError {
	if !b.Mem.Over() {
		return nil
	}
	return &AbortError{Reason: ErrMemory, Limit: b.Mem.Max(), Stats: Stats{MemBytes: b.Mem.Grown()}}
}

// MemTracker accumulates an approximate heap footprint for one evaluator
// — a uniform engine or a whole cascade sharing one fact substrate — and
// enforces an optional per-query growth ceiling.
//
// The footprint has two parts: explicit charges (memo-table entries,
// cached Δ materialisations) added and removed with Add, and polled
// sources (the interner and base database report their own running
// totals). Begin snapshots the footprint at query start; Over reports
// whether the query has since grown it past the configured maximum, so a
// warm pooled engine carrying megabytes of useful memo state is never
// penalised for work done by earlier queries.
//
// All methods are nil-safe: a nil tracker never charges and never trips,
// so call sites need no branching. A MemTracker is confined to one
// evaluator and, like the engines themselves, is not safe for concurrent
// use.
type MemTracker struct {
	max  int64
	used int64
	base int64
	srcs []func() int64
}

// NewMemTracker builds a tracker with the given growth ceiling in bytes;
// max <= 0 means account but never trip.
func NewMemTracker(max int64) *MemTracker {
	return &MemTracker{max: max}
}

// AddSource registers a footprint source polled by Current (e.g. the
// interner's and base database's byte counters).
func (t *MemTracker) AddSource(f func() int64) {
	if t == nil {
		return
	}
	t.srcs = append(t.srcs, f)
}

// Add charges (or, negative, releases) n bytes of explicit footprint.
func (t *MemTracker) Add(n int64) {
	if t == nil {
		return
	}
	t.used += n
}

// Current returns the total tracked footprint: explicit charges plus
// every registered source.
func (t *MemTracker) Current() int64 {
	if t == nil {
		return 0
	}
	n := t.used
	for _, f := range t.srcs {
		n += f()
	}
	return n
}

// Begin snapshots the current footprint as the new query's baseline.
func (t *MemTracker) Begin() {
	if t == nil {
		return
	}
	t.base = t.Current()
}

// Grown returns the footprint growth since the last Begin.
func (t *MemTracker) Grown() int64 {
	if t == nil {
		return 0
	}
	return t.Current() - t.base
}

// Max returns the configured ceiling (0 = unlimited).
func (t *MemTracker) Max() int64 {
	if t == nil {
		return 0
	}
	return t.max
}

// Over reports whether the query's growth has exceeded the ceiling.
func (t *MemTracker) Over() bool {
	return t != nil && t.max > 0 && t.Grown() > t.max
}
