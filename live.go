package hypo

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/live"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/storage"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/vfs"
)

// LiveConfig configures the durable store behind a Live engine; see
// live.Config for field semantics.
type LiveConfig struct {
	WALPath       string
	SnapshotPath  string
	SnapshotEvery int
	NoSync        bool
	Logger        *slog.Logger
	// FS, when non-nil, replaces the real filesystem under the store —
	// the seam fault-injection and crash tests use. Nil means the OS.
	FS vfs.FS
	// StreamTailLen bounds the in-memory ring of recent commit records
	// kept for replication followers; 0 means the store default. A
	// follower further behind than the tail reaches must
	// snapshot-bootstrap instead of streaming.
	StreamTailLen int
	// RecoveryProbeInterval is the initial delay between background
	// write-path recovery probes after a transient degradation (ENOSPC);
	// probes back off exponentially from it. 0 means one second.
	// Corruption-class degradations are never probed — they stay sticky
	// until restart.
	RecoveryProbeInterval time.Duration
}

// Live couples a Pool with a durable, versioned fact store
// (internal/live): the program's rules stay fixed while its base EDB
// accepts transactional assert/retract batches at runtime. Every commit
// produces a new data version; queries in flight keep the
// version their engine was leased at (snapshot isolation), queries
// admitted after Apply returns see the new one. Validation — constants
// inside the pinned dom(R, DB), no intensional predicates, ground facts
// only — happens here, above the store, which keeps internal/live free
// of engine concepts. The store logs the facts; the pool's base is their
// one in-memory copy, read by Apply's effective delta and every snapshot.
type Live struct {
	mu    sync.Mutex // serialises Apply: validate → commit → publish → compact
	store *live.Store
	pool  *Pool
	rec   live.Recovery
	mets  *metrics.Set // metric set for commit traffic (never nil)

	// changed is closed and replaced after each publish or reset (under mu).
	// WaitVersion waits on it rather than on the store's own broadcast,
	// which fires between the durable commit and the publish — waking there
	// could admit a read that still leases an engine at the old version.
	changed chan struct{}

	// probing is true while a background recovery goroutine is retrying
	// TryRecover after a transient degradation (written under mu); stop
	// ends it at Close. probeIv is the initial probe interval.
	probing   atomic.Bool
	stop      chan struct{}
	closeOnce sync.Once
	probeIv   time.Duration
}

// OpenLive builds a live engine: it recovers the durable state at lc's
// paths (snapshot + WAL tail; initial's facts seed a first boot), pins
// the constant domain, and starts a Pool at the recovered version.
//
// The pinned domain is dom(R, DB) of the initial program, plus
// opts.ExtraDomain, plus any constants appearing in recovered facts.
// It does not grow afterwards: asserting a fact with a fresh constant is
// rejected, exactly like querying with one (declare such constants in
// the program or opts.ExtraDomain). Pinning is what makes versions
// comparable — negation-as-failure and variable enumeration range over
// the same constants at every version, so a retraction can flip answers
// only through the facts, never by silently shrinking the domain.
func OpenLive(initial *Program, lc LiveConfig, opts Options) (*Live, error) {
	st, fs, rec, err := live.Open(initial.src, live.Config{
		WALPath:       lc.WALPath,
		SnapshotPath:  lc.SnapshotPath,
		SnapshotEvery: lc.SnapshotEvery,
		NoSync:        lc.NoSync,
		Logger:        lc.Logger,
		FS:            lc.FS,
		StreamTailLen: lc.StreamTailLen,
	})
	if err != nil {
		return nil, err
	}

	// Pin the domain. Recovered facts may mention constants absent from
	// the initial text (asserted in a previous run); they were in-domain
	// when accepted, so they stay in-domain now: they follow
	// opts.ExtraDomain, in the order the facts name them.
	extra := slices.Clip(opts.ExtraDomain)
	for _, f := range fs {
		for _, t := range f.Args {
			extra = append(extra, t.Name)
		}
	}
	dom := newDomain(initial, extra)
	cfs, err := compileAtoms(fs, initial.syms)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("hypo: compiling recovered facts: %w", err)
	}
	pl, err := newPool(initial, opts, dom, cfs, rec.Version)
	if err != nil {
		st.Close()
		return nil, err
	}

	mets := opts.metricSet()
	mets.LiveVersion.Set(int64(rec.Version))
	mets.LiveReplayed.Add(int64(rec.Replayed))
	mets.LiveSnapshotAge.Set(int64(st.SinceSnapshot()))
	mets.LiveReadOnly.Set(0)

	probeIv := lc.RecoveryProbeInterval
	if probeIv <= 0 {
		probeIv = time.Second
	}
	l := &Live{
		store:   st,
		pool:    pl,
		rec:     rec,
		mets:    mets,
		changed: make(chan struct{}),
		stop:    make(chan struct{}),
		probeIv: probeIv,
	}
	mets.DiskBytes.Set(st.DiskBytes())
	return l, nil
}

// Pool returns the query pool. Queries admitted after an Apply returns
// are answered at (or after) the version that Apply produced.
func (l *Live) Pool() *Pool { return l.pool }

// Version returns the current data version.
func (l *Live) Version() uint64 { return l.store.Version() }

// Recovery reports what OpenLive reconstructed from disk.
func (l *Live) Recovery() live.Recovery { return l.rec }

// Degraded reports whether the store has gone read-only after an I/O
// error, with the cause (empty when healthy). A degraded Live is still
// a serving Live: the pool keeps answering queries at the last
// committed version — only mutation traffic is refused, with
// live.ErrReadOnly. Corruption-class degradations are sticky until
// restart; transient ones (ENOSPC) are retried by a background recovery
// prober (see Recovering) and clear in place once a probe write fsyncs.
func (l *Live) Degraded() (bool, string) {
	ro, _, err := l.store.Degraded()
	if !ro && l.probing.Load() {
		// A probe has made the store writable and holds mu until it has
		// counted the recovery (probeLoop): wait for it.
		l.mu.Lock()
		ro, _, err = l.store.Degraded()
		l.mu.Unlock()
	}
	if !ro {
		return false, ""
	}
	reason := "unrecoverable I/O error"
	if err != nil {
		reason = err.Error()
	}
	return true, reason
}

// Recovering reports whether a background recovery prober is currently
// retrying the write path after a transient degradation.
func (l *Live) Recovering() bool { return l.probing.Load() }

// noteDegradedLocked flips the alerting gauge and, for a transient
// degradation, starts the background recovery prober (at most one runs
// at a time). Called with mu held wherever a degrade is observed.
func (l *Live) noteDegradedLocked() {
	l.mets.LiveReadOnly.Set(1)
	if l.probing.Load() {
		return
	}
	ro, transient, _ := l.store.Degraded()
	if !ro || !transient {
		return
	}
	l.mets.DiskDegradedTransient.Inc()
	l.probing.Store(true)
	go l.probeLoop()
}

// probeLoop retries TryRecover with exponential backoff until the store
// is writable again, the degradation turns out sticky, or the Live
// closes. It re-enables the write path in place — no restart — which is
// the right response to space pressure: the WAL prefix is known-good
// and acked commits are already durable in it.
//
// A probe holds mu from TryRecover until the recovery is counted, the
// gauge cleared and probing reset. Apply takes mu, and Degraded takes it
// when it finds the store writable while probing is still set, so no
// caller sees the store writable before the metrics say so; a healthy
// or still-degraded store answers Degraded without mu.
func (l *Live) probeLoop() {
	iv := l.probeIv
	maxIv := 32 * l.probeIv
	for {
		select {
		case <-l.stop:
			l.mu.Lock()
			l.probing.Store(false)
			l.mu.Unlock()
			return
		case <-time.After(iv):
		}
		l.mets.DiskRecoveryProbes.Inc()
		l.mu.Lock()
		err := l.store.TryRecover()
		ro, transient, _ := l.store.Degraded()
		if err == nil {
			l.mets.DiskRecoveries.Inc()
		}
		if !ro {
			l.mets.LiveReadOnly.Set(0)
		}
		// Recovered, cleared some other way, or reclassified sticky: stop.
		if err == nil || !ro || !transient {
			l.probing.Store(false)
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()
		if iv *= 2; iv > maxIv {
			iv = maxIv
		}
	}
}

// ParseMutations parses assert/retract surface atoms ("edge(a, b)") into
// a mutation batch, rejecting non-ground atoms. Validation beyond
// groundness (domain, intensional predicates) happens at Apply.
func ParseMutations(asserts, retracts []string) ([]live.Mutation, error) {
	out := make([]live.Mutation, 0, len(asserts)+len(retracts))
	parse := func(src string, op live.Op) error {
		a, err := parser.ParseAtom(src)
		if err != nil {
			return fmt.Errorf("hypo: %s %q: %w", op, src, err)
		}
		if !a.IsGround() {
			return fmt.Errorf("hypo: %s %q: fact is not ground", op, src)
		}
		out = append(out, live.Mutation{Op: op, Atom: a})
		return nil
	}
	for _, s := range asserts {
		if err := parse(s, live.OpAssert); err != nil {
			return nil, err
		}
	}
	for _, s := range retracts {
		if err := parse(s, live.OpRetract); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Apply commits a mutation batch: all mutations are validated, written
// durably (WAL fsync), and published to the pool as one new data
// version, so every subsequent lease evaluates at that version. The batch
// is all-or-nothing — one invalid mutation rejects it with no effect.
// Apply returns only after the publish, so a caller that sees the ack is
// guaranteed the next query it sends observes the commit (or a later
// one). Concurrent Applies serialise; each gets its own version.
func (l *Live) Apply(ms []live.Mutation) (live.CommitInfo, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.applyLocked(ms)
}

func (l *Live) applyLocked(ms []live.Mutation) (live.CommitInfo, error) {
	for _, m := range ms {
		if err := l.validate(m); err != nil {
			l.mets.LiveRejected.Inc()
			return live.CommitInfo{}, err
		}
	}
	// The effective delta is computed against the pool's base, which holds
	// the pre-commit facts: it is what the base and its stale engines apply
	// in place (see Pool.publish). Every writer of the base holds mu, so
	// reading it under mu alone races with none of them.
	cadd, crem, changed, err := effectiveDelta(ms, l.pool.base.db)
	if err != nil {
		l.mets.LiveRejected.Inc()
		return live.CommitInfo{}, err
	}
	version, err := l.store.Commit(ms)
	if err != nil {
		// An I/O failure is a degradation, not a rejection: the batch was
		// fine, the disk was not. Flip the gauge operators alert on and
		// surface live.ErrReadOnly so callers can tell the two apart.
		if errors.Is(err, live.ErrReadOnly) {
			l.noteDegradedLocked()
		} else {
			l.mets.LiveRejected.Inc()
		}
		return live.CommitInfo{}, err
	}
	if err := l.pool.publish(version, cadd, crem); err != nil {
		// The commit is durable but unservable — impossible for a compiled
		// fact. Fail loudly rather than serve a version that silently
		// dropped it.
		return live.CommitInfo{}, fmt.Errorf("hypo: committed batch failed to apply: %w", err)
	}
	l.broadcastLocked()

	l.mets.LiveCommits.Inc()
	l.mets.LiveMutations.Add(int64(len(ms)))
	l.mets.LiveVersion.Set(int64(version))
	compacted, _ := l.compactLocked(false)
	return live.CommitInfo{Version: version, Changed: changed, Compacted: compacted}, nil
}

// compactLocked runs the store's compaction policy (force: after a reset
// and on Close) over the pool base, which the publish or reset before it
// has moved to the store's version. It then updates what a compaction
// moves: live_compactions, the snapshot age, disk_bytes, and, when a
// failed WAL rotation degraded the store, the read-only gauge and prober.
func (l *Live) compactLocked(force bool) (done bool, err error) {
	if done = l.store.CompactDue(force); done {
		err = l.store.Compact(l.pool.base.facts())
		if done = err == nil; done {
			l.mets.LiveCompactions.Inc()
		}
	}
	l.mets.LiveSnapshotAge.Set(int64(l.store.SinceSnapshot()))
	l.mets.DiskBytes.Set(l.store.DiskBytes())
	if ro, _, _ := l.store.Degraded(); ro {
		l.noteDegradedLocked()
	}
	return done, err
}

// facts returns the substrate's facts as surface atoms sorted by
// canonical text: the snapshot a Live compacts to or serves.
func (s *substrate) facts() []ast.Atom {
	syms := s.in.Syms()
	ids := s.db.All()
	out := make([]ast.Atom, len(ids))
	for i, id := range ids {
		args := s.in.Args(id)
		out[i] = ast.Atom{Pred: syms.PredName(s.in.Pred(id)), Args: make([]ast.Term, len(args))}
		for j, c := range args {
			out[i].Args[j] = ast.Const(syms.ConstName(c))
		}
	}
	live.SortFacts(out)
	return out
}

// Store exposes the underlying versioned store; normal mutation traffic
// must keep going through Apply, which is what validates and publishes
// to the pool.
func (l *Live) Store() *live.Store { return l.store }

// StreamHorizon, RecordsSince and Updates are the store's: a Live is the
// repl.Source a replication primary streams from.
func (l *Live) StreamHorizon() uint64                          { return l.store.StreamHorizon() }
func (l *Live) RecordsSince(from uint64) ([]live.Record, bool) { return l.store.RecordsSince(from) }
func (l *Live) Updates() <-chan struct{}                       { return l.store.Updates() }

// SnapshotProgram returns the rules plus the pool base's facts, sorted
// by canonical text, and their version: the payload a primary serves to
// a bootstrapping follower. Every commit and reset moves the base and
// the store together under mu, so under mu they are at one version.
func (l *Live) SnapshotProgram() (*ast.Program, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	src := l.pool.prog.src
	return &ast.Program{Rules: src.Rules, Queries: src.Queries, Facts: l.pool.base.facts()}, l.pool.Version()
}

// ApplyReplicated applies one streamed WAL record from a replication
// primary, exactly as Apply would have applied the original batch: same
// validation, same durability (the record is re-framed into the local
// WAL), same publish. Records must arrive in version order with no
// gaps — the record's version must be exactly the local version + 1;
// anything else means the stream and the store have diverged and the
// caller must re-bootstrap from a snapshot.
func (l *Live) ApplyReplicated(rec live.Record) (live.CommitInfo, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if want := l.store.Version() + 1; rec.Version != want {
		return live.CommitInfo{}, fmt.Errorf("hypo: replicated record jumps from version %d to %d; resync required", l.store.Version(), rec.Version)
	}
	info, err := l.applyLocked(rec.Muts)
	if err != nil {
		return info, err
	}
	if info.Version != rec.Version {
		// Cannot happen while the version check above holds (Commit
		// increments by one), but a silent renumbering would desync every
		// answer's version stamp — fail loudly.
		return info, fmt.Errorf("hypo: replicated record %d committed as version %d", rec.Version, info.Version)
	}
	return info, nil
}

// InstallSnapshot replaces the entire fact base with a bootstrap
// snapshot (storage.Write format) at the given version, durably, and
// resets the pool's base to it. It is the replication cold-start path: a
// follower whose WAL position has aged out of the primary's stream
// window downloads a full snapshot and resumes tailing from its
// version. Every fact is validated against the local program's pinned
// domain first — with primary and replica running the same program the
// check always passes; a failure means the programs differ and the
// replica must not serve.
func (l *Live) InstallSnapshot(rd io.Reader, version uint64) error {
	snap, err := storage.Read(rd)
	if err != nil {
		return fmt.Errorf("hypo: parsing bootstrap snapshot: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range snap.Facts {
		if err := l.validate(live.Mutation{Op: live.OpAssert, Atom: f}); err != nil {
			l.mets.LiveRejected.Inc()
			return fmt.Errorf("hypo: bootstrap snapshot: %w", err)
		}
	}
	fs, err := compileAtoms(snap.Facts, l.pool.prog.syms)
	if err != nil {
		return fmt.Errorf("hypo: bootstrap snapshot failed to compile: %w", err)
	}
	if err := l.store.ResetToFacts(snap.Facts, version); err != nil {
		if errors.Is(err, live.ErrReadOnly) {
			l.noteDegradedLocked()
		}
		return err
	}
	if err := l.pool.reset(fs, version); err != nil {
		return fmt.Errorf("hypo: bootstrap snapshot failed to load: %w", err)
	}
	l.broadcastLocked()
	l.mets.LiveCommits.Inc()
	l.mets.LiveVersion.Set(int64(version))
	l.compactLocked(true) // a failure leaves the reset record to the next one
	return nil
}

// broadcastLocked wakes WaitVersion waiters; called with mu held, after
// the pool has moved to the new version.
func (l *Live) broadcastLocked() {
	close(l.changed)
	l.changed = make(chan struct{})
}

// WaitVersion blocks until the pool serves data version min or later —
// i.e. until a lease taken after it returns is guaranteed to evaluate
// at >= min — or until ctx is done, returning ctx's error in that case.
// It is the read-your-writes primitive: a server gating on
// X-Hdl-Min-Version parks the request here until replication catches
// up.
func (l *Live) WaitVersion(ctx context.Context, min uint64) error {
	for {
		// Grab the channel and check the version under one lock: the publish
		// and the broadcast also happen under it, so a commit landing after
		// the check closes the channel we already hold — the wake-up cannot
		// be missed.
		l.mu.Lock()
		ch := l.changed
		v := l.pool.Version()
		l.mu.Unlock()
		if v >= min {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// validate enforces the engine-level admission rules for one mutation:
// the fact must be ground, its predicate extensional, and its constants
// inside the pinned domain.
func (l *Live) validate(m live.Mutation) error {
	return validateMutation(m, l.pool.prog, l.pool.dom.set)
}

// validateMutation is the admission check shared by Live.Apply and
// Engine.ApplyDelta.
func validateMutation(m live.Mutation, p *Program, domSet map[symbols.Const]bool) error {
	if !m.Atom.IsGround() {
		return fmt.Errorf("hypo: %s %s: fact is not ground", m.Op, m.Atom)
	}
	if pr, ok := p.syms.LookupPred(m.Atom.Pred, len(m.Atom.Args)); ok && p.comp.IDB[pr] {
		return fmt.Errorf("hypo: %s %s: predicate %s/%d is intensional (defined by rules); only base facts can be mutated",
			m.Op, m.Atom, m.Atom.Pred, len(m.Atom.Args))
	}
	for _, t := range m.Atom.Args {
		if t.IsVar {
			continue
		}
		if c, ok := p.syms.LookupConst(t.Name); !ok || !domSet[c] {
			return fmt.Errorf("hypo: %s %s: constant %q is outside dom(R, DB); declare it in the program or Options.ExtraDomain",
				m.Op, m.Atom, t.Name)
		}
	}
	return nil
}

// effectiveDelta compiles a mutation batch and simulates it in order
// against base, the pre-batch facts, returning the facts whose
// membership actually changes — asserting a present fact, retracting an
// absent one, or doing both to the same atom in one batch nets out to
// nothing — and changed, the number of mutations that flip membership as
// the batch runs. The returned slices preserve first-occurrence order, so
// the same batch always produces the same delta. Of base it only reads
// membership, through an interner lookup whose key buffer is all it
// writes.
func effectiveDelta(ms []live.Mutation, base *facts.DB) (added, removed []ast.CAtom, changed int, err error) {
	in := base.Interner()
	type entry struct {
		atom      ast.CAtom
		base, now bool
	}
	state := map[string]*entry{}
	var order []*entry
	for _, m := range ms {
		k := m.Atom.String()
		en, ok := state[k]
		if !ok {
			ca, err := compileGroundAtom(m.Atom, in.Syms())
			if err != nil {
				return nil, nil, 0, err
			}
			var buf [8]symbols.Const
			args := buf[:0]
			for _, t := range ca.Args {
				args = append(args, t.ConstID())
			}
			id, found := in.Lookup(ca.Pred, args)
			en = &entry{atom: ca, base: found && base.Has(id)}
			en.now = en.base
			state[k] = en
			order = append(order, en)
		}
		if now := m.Op == live.OpAssert; now != en.now {
			en.now = now
			changed++
		}
	}
	for _, en := range order {
		switch {
		case en.now && !en.base:
			added = append(added, en.atom)
		case !en.now && en.base:
			removed = append(removed, en.atom)
		}
	}
	return added, removed, changed, nil
}

// Close stops the recovery prober, shuts the pool down (in-flight
// queries finish on their leased engines) and then closes the store,
// compacting once more when a snapshot path is configured. Close is
// idempotent.
func (l *Live) Close() (err error) {
	l.closeOnce.Do(func() {
		close(l.stop)
		l.pool.Close()
		l.mu.Lock()
		defer l.mu.Unlock()
		_, err = l.compactLocked(true)
		if cerr := l.store.Close(); err == nil {
			err = cerr
		}
	})
	return err
}
