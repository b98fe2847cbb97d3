// Package live is the mutable, durable, versioned base database — the
// "live EDB" under a hypothetical Datalog engine. Where the rest of the
// system treats the extensional database as frozen at load time, a
// live.Store accepts transactional mutation batches (assert/retract of
// ground facts, all-or-nothing), gives each committed batch a new
// immutable data version, and makes every acknowledged commit durable:
//
//   - a commit is appended to an append-only, CRC-guarded write-ahead log
//     and fsynced before it is acknowledged;
//   - every SnapshotEvery commits the caller's fact set is compacted into
//     the HDLSNAP snapshot format (internal/storage) and the WAL is
//     rotated;
//   - crash recovery = load the snapshot (or the seed program) and replay
//     the WAL tail; a torn last record is discarded by its checksum, so
//     recovery converges on a version ≥ every acknowledged commit.
//
// The store keeps no fact set of its own: Open hands the recovered facts
// to its caller once, and the caller — hypo.Live, whose pool base is the
// one in-memory copy — passes the facts back to Compact when CompactDue
// says a snapshot is due. Every fact list crossing that boundary is
// sorted by canonical text (SortFacts).
//
// All disk access goes through an injectable filesystem (internal/vfs,
// Config.FS): production uses the real one, the crash-consistency
// torture harness (torture_test.go) swaps in a simulated disk and power-
// cuts it at every write/sync boundary. When an I/O error makes further
// durability promises impossible — a failed WAL append or fsync, or a
// WAL rotation whose directory entry could not be made durable — the
// store degrades into a sticky read-only state (ErrReadOnly): the last
// committed version keeps serving, mutations are refused, and only a
// restart (with a healthy disk) clears the condition. Fsync failure is
// not retried: after EIO the kernel may have dropped the dirty pages, so
// "retry until it works" silently loses acknowledged data.
//
// The store itself is engine-agnostic: it logs and snapshots facts as
// surface-syntax ground atoms and knows nothing about domains,
// stratification or intensional predicates. Admission policy (rejecting
// constants outside the declared domain, mutations of intensional
// predicates, arity conflicts) belongs to the engine layer wrapping it —
// see hypo.Live.
//
// A Store is safe for concurrent use; commits are serialised internally.
package live

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/storage"
	"hypodatalog/internal/vfs"
)

// Op is a mutation kind.
type Op uint8

const (
	// OpAssert inserts a ground fact into the base database.
	OpAssert Op = 1
	// OpRetract removes a ground fact from the base database.
	OpRetract Op = 2
)

// String names the op in surface terms.
func (o Op) String() string {
	switch o {
	case OpAssert:
		return "assert"
	case OpRetract:
		return "retract"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Mutation is one assert or retract of a ground fact.
type Mutation struct {
	Op   Op
	Atom ast.Atom
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("live: store is closed")

// ErrReadOnly is returned by Commit once an I/O error has degraded the
// store to read-only: reads keep serving the last committed version and
// every subsequent mutation fails with an error satisfying
// errors.Is(err, ErrReadOnly). For corruption-class errors
// (EIO, a failed rollback) the state is sticky — only a restart, which
// re-runs recovery against the surviving durable state, clears it. For
// transient space pressure (ENOSPC with a clean rollback) the write
// path can be re-enabled in place once TryRecover's probe write fsyncs
// cleanly. Test with errors.Is; the original I/O error is joined in
// (and available via Degraded).
var ErrReadOnly = errors.New("live: store is read-only (degraded after an I/O error; restart to recover)")

// Config parameterises a Store.
type Config struct {
	// WALPath is the write-ahead log file. Required. Created if absent;
	// replayed (with the torn tail truncated) if present.
	WALPath string

	// SnapshotPath, when set, enables compaction: the facts Compact is
	// given are written there in the HDLSNAP format and the WAL is
	// rotated. On Open, an existing snapshot at this path seeds the fact
	// set (the WAL tail is replayed on top of it).
	SnapshotPath string

	// SnapshotEvery makes CompactDue call for a snapshot after this many
	// commits since the last compaction. Zero disables periodic
	// compaction (a clean close still compacts when SnapshotPath is set).
	SnapshotEvery int

	// NoSync skips the per-commit fsync (and the directory fsyncs).
	// Commits are then only as durable as the OS page cache — for tests
	// and benchmarks, not production.
	NoSync bool

	// StreamTailLen bounds the in-memory ring of recent commit records
	// kept for replication streaming (RecordsSince). A follower whose
	// resume point has aged out of the ring must bootstrap from a
	// snapshot. Default: 4096.
	StreamTailLen int

	// FS is the filesystem the store runs on. Default: the real one
	// (vfs.OS). Tests inject vfs.Mem/vfs.Fault to simulate crashes and
	// disk faults.
	FS vfs.FS

	// Logger receives compaction and recovery diagnostics. Default:
	// slog.Default().
	Logger *slog.Logger
}

// Recovery reports what Open reconstructed.
type Recovery struct {
	// Version is the data version the store resumed at.
	Version uint64
	// Replayed is the number of WAL records applied on top of the base
	// fact set.
	Replayed int
	// TornBytes is the size of the discarded torn WAL tail (0 on a clean
	// shutdown).
	TornBytes int
	// FromSnapshot reports whether the base fact set came from the
	// snapshot file rather than the seed program.
	FromSnapshot bool
}

// CommitInfo reports one successful commit of hypo.Live, which fills it:
// the store logs a batch without holding the facts it changes.
type CommitInfo struct {
	// Version is the new data version produced by the batch.
	Version uint64
	// Changed is how many mutations altered the fact set (asserting a
	// present fact or retracting an absent one is a no-op that still
	// commits).
	Changed int
	// Compacted reports whether this commit triggered a snapshot
	// compaction.
	Compacted bool
}

// Store is the versioned fact store. See the package comment.
type Store struct {
	mu    sync.Mutex
	cfg   Config
	fs    vfs.FS
	log   *slog.Logger
	rules *ast.Program // rules and queries, written into every snapshot

	version uint64

	wal       vfs.File
	sinceSnap int // commits since the last compaction (or Open)

	closed bool
	roErr  error // first degrading I/O error; non-nil = read-only
	// roTransient marks the degradation as transient I/O pressure (e.g.
	// ENOSPC with a clean WAL rollback) rather than corruption: the
	// on-disk prefix is known-good, so TryRecover may re-enable writes
	// once a probe write fsyncs cleanly. Sticky degradations (EIO,
	// failed rollback) keep it false and only a restart recovers.
	roTransient bool

	// tail is the in-memory ring of recent commit records — the stream
	// source for replication followers. It is seeded from the WAL tail at
	// recovery and bounded by cfg.StreamTailLen; a follower further behind
	// than the ring's first record must bootstrap from a snapshot instead.
	// Its versions are gapless and end at version; once full, tailHead is
	// the slot of the oldest record, which the next commit overwrites.
	tail     []Record
	tailHead int
	// changed is closed (and replaced) on every commit or reset — the
	// broadcast replication streamers block on between records.
	changed chan struct{}
}

// Open builds a store from the seed program and the durable state at
// cfg's paths, and returns the facts at the recovered version, sorted by
// canonical text: the snapshot's (or, without one, the seed's) with the
// WAL tail replayed on top. The store keeps no reference to them. The
// seed's rules and queries are authoritative (they are what gets written
// into compaction snapshots); its facts are used only when no snapshot
// exists. Facts are deduplicated by canonical text.
func Open(seed *ast.Program, cfg Config) (*Store, []ast.Atom, Recovery, error) {
	if cfg.WALPath == "" {
		return nil, nil, Recovery{}, errors.New("live: Config.WALPath is required")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.FS == nil {
		cfg.FS = vfs.OS{}
	}
	if cfg.StreamTailLen <= 0 {
		cfg.StreamTailLen = 4096
	}
	s := &Store{
		cfg:     cfg,
		fs:      cfg.FS,
		log:     cfg.Logger,
		rules:   &ast.Program{Rules: seed.Rules, Queries: seed.Queries},
		changed: make(chan struct{}),
	}
	var rec Recovery
	facts := make(map[string]ast.Atom) // key: canonical surface text

	// Base fact set: the snapshot if one exists, else the seed program.
	base := seed.Facts
	if cfg.SnapshotPath != "" {
		f, err := s.fs.Open(cfg.SnapshotPath)
		switch {
		case err == nil:
			snap, rerr := storage.Read(f)
			f.Close()
			if rerr != nil {
				return nil, nil, Recovery{}, fmt.Errorf("live: snapshot %s: %w", cfg.SnapshotPath, rerr)
			}
			base = snap.Facts
			rec.FromSnapshot = true
		case errors.Is(err, fs.ErrNotExist):
			// First boot: seed facts.
		default:
			return nil, nil, Recovery{}, fmt.Errorf("live: snapshot: %w", err)
		}
	}
	for _, a := range base {
		if !a.IsGround() {
			return nil, nil, Recovery{}, fmt.Errorf("live: base fact %s is not ground", a)
		}
		facts[a.String()] = a
	}

	if err := s.openWAL(&rec, facts); err != nil {
		return nil, nil, Recovery{}, err
	}
	rec.Version = s.version
	keys := make([]string, 0, len(facts))
	for k := range facts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ast.Atom, len(keys))
	for i, k := range keys {
		out[i] = facts[k]
	}
	return s, out, rec, nil
}

// SortFacts sorts facts by canonical text: the order of every fact list
// the store returns or writes into a snapshot.
func SortFacts(facts []ast.Atom) {
	type keyed struct {
		key  string
		atom ast.Atom
	}
	ks := make([]keyed, len(facts))
	for i, a := range facts {
		ks[i] = keyed{a.String(), a}
	}
	slices.SortFunc(ks, func(x, y keyed) int { return strings.Compare(x.key, y.key) })
	for i, k := range ks {
		facts[i] = k.atom
	}
}

// openWAL replays (or creates) the WAL file onto facts and leaves it open
// for appending.
func (s *Store) openWAL(rec *Recovery, facts map[string]ast.Atom) error {
	data, err := s.fs.ReadFile(s.cfg.WALPath)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return s.createWAL(0)
	case err != nil:
		return fmt.Errorf("live: reading WAL: %w", err)
	}
	if tornHeader(data) {
		// Power was cut during first-boot creation: the header never became
		// durable, so nothing was ever acknowledged from this file.
		if rec.FromSnapshot {
			return fmt.Errorf("live: WAL %s has a torn header but a snapshot exists; cannot infer the base version", s.cfg.WALPath)
		}
		s.log.Warn("live: discarding WAL torn during creation",
			"wal", s.cfg.WALPath, "bytes", len(data))
		rec.TornBytes = len(data)
		if err := s.fs.Remove(s.cfg.WALPath); err != nil {
			return fmt.Errorf("live: removing torn WAL: %w", err)
		}
		return s.createWAL(0)
	}
	base, recs, goodLen, err := parseWAL(data)
	if err != nil {
		return err
	}
	if goodLen < len(data) {
		rec.TornBytes = len(data) - goodLen
		s.log.Warn("live: discarding torn WAL tail",
			"wal", s.cfg.WALPath, "bytes", rec.TornBytes)
		if err := s.fs.Truncate(s.cfg.WALPath, int64(goodLen)); err != nil {
			return fmt.Errorf("live: truncating torn WAL tail: %w", err)
		}
	}
	s.version = base
	for _, r := range recs {
		if r.reset {
			clear(facts)
			s.tail, s.tailHead = nil, 0
		}
		for _, m := range r.muts {
			switch m.Op {
			case OpAssert:
				facts[m.Atom.String()] = m.Atom
			case OpRetract:
				delete(facts, m.Atom.String())
			}
		}
		s.version = r.version
		if !r.reset {
			s.appendTailLocked(Record{Version: r.version, Muts: r.muts})
		}
	}
	rec.Replayed = len(recs)
	f, err := s.fs.OpenFile(s.cfg.WALPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("live: reopening WAL for append: %w", err)
	}
	s.wal = f
	s.sinceSnap = len(recs)
	return nil
}

// createWAL writes a fresh WAL file containing only a header and opens
// it for appending.
func (s *Store) createWAL(base uint64) error {
	f, err := s.fs.OpenFile(s.cfg.WALPath, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("live: creating WAL: %w", err)
	}
	if _, err := f.Write(encodeHeader(base)); err != nil {
		f.Close()
		return fmt.Errorf("live: writing WAL header: %w", err)
	}
	if err := s.syncFile(f); err != nil {
		f.Close()
		return err
	}
	// The directory entry must be durable too: fsyncing record data into
	// a file a crash could unlink would lose acked first-boot commits.
	if err := s.syncDir(s.cfg.WALPath); err != nil {
		f.Close()
		return err
	}
	s.wal = f
	s.version = base
	s.sinceSnap = 0
	return nil
}

func (s *Store) syncFile(f vfs.File) error {
	if s.cfg.NoSync {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("live: fsync: %w", err)
	}
	return nil
}

// syncDir fsyncs the parent directory of path, making creations and
// renames of the file durable. Skipped (like every fsync) under NoSync.
func (s *Store) syncDir(path string) error {
	if s.cfg.NoSync {
		return nil
	}
	if err := s.fs.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("live: fsync dir %s: %w", filepath.Dir(path), err)
	}
	return nil
}

// isTransientIO reports whether an I/O error is space pressure rather
// than disk damage. ENOSPC (and the quota twin EDQUOT) is transient:
// the kernel rejected the data outright, so unlike a post-EIO fsync
// there are no untrustworthy dirty pages — once the rollback truncate
// has restored the known-good WAL prefix, resuming appends after space
// returns is sound.
func isTransientIO(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT)
}

// degradeLocked records the first degrading I/O error and flips the
// store read-only. rollbackOK reports whether the on-disk state is
// still a known-good prefix (nothing was written, or the rollback
// truncate succeeded); only then, and only for transient space-pressure
// errors, is the degradation recoverable by TryRecover — anything else
// is sticky until restart. It returns the error to hand the caller:
// ErrReadOnly joined with the cause.
func (s *Store) degradeLocked(cause error, rollbackOK bool) error {
	if s.roErr == nil {
		s.roErr = cause
		s.roTransient = rollbackOK && isTransientIO(cause)
		if s.roTransient {
			s.log.Error("live: transient I/O pressure; store is read-only until a recovery probe succeeds", "err", cause)
		} else {
			s.log.Error("live: unrecoverable I/O error; store is now read-only", "err", cause)
		}
	}
	return errors.Join(ErrReadOnly, cause)
}

// Degraded reports the store's degradation state: whether it is
// read-only, whether that degradation is transient (eligible for
// TryRecover), and the causing error.
func (s *Store) Degraded() (ro, transient bool, cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.roErr != nil, s.roTransient, s.roErr
}

// TryRecover attempts to re-enable the write path of a transiently
// degraded store (see Degraded). It probes the disk — a throwaway file
// in the WAL's directory must create, write and fsync cleanly — then
// re-fsyncs the WAL handle and its directory so any durability step the
// degradation interrupted (e.g. a rotation's directory entry) lands.
// Only when every step succeeds does the store become writable again.
// On a healthy store it is a no-op; on a sticky degradation it fails
// with ErrReadOnly without touching the disk.
func (s *Store) TryRecover() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.roErr == nil {
		return nil
	}
	if !s.roTransient {
		return errors.Join(ErrReadOnly, s.roErr)
	}
	probe := s.cfg.WALPath + ".probe"
	f, err := s.fs.OpenFile(probe, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("live: recovery probe create: %w", err)
	}
	_, err = f.Write([]byte("hdl-recovery-probe"))
	if err == nil {
		err = s.syncFile(f)
	}
	cerr := f.Close()
	s.fs.Remove(probe)
	if err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("live: recovery probe: %w", err)
	}
	// The probe proves the disk accepts new data; now make the store's
	// own files durable again (a rotation degrade left its directory
	// fsync pending, an append degrade left a truncated-back WAL whose
	// metadata should settle before new records land on it).
	if err := s.syncFile(s.wal); err != nil {
		return fmt.Errorf("live: recovery WAL fsync: %w", err)
	}
	if err := s.syncDir(s.cfg.WALPath); err != nil {
		return fmt.Errorf("live: recovery dir fsync: %w", err)
	}
	s.log.Info("live: write path recovered", "cause", s.roErr, "version", s.version)
	s.roErr = nil
	s.roTransient = false
	return nil
}

// DiskBytes reports the store's current on-disk footprint: the WAL plus
// the snapshot (when configured). It is an instantaneous figure read
// through the store's filesystem, used for disk-quota accounting.
func (s *Store) DiskBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	var n int64
	if s.wal != nil {
		if off, err := s.wal.Seek(0, io.SeekEnd); err == nil {
			n += off
		}
	}
	if s.cfg.SnapshotPath != "" {
		if f, err := s.fs.Open(s.cfg.SnapshotPath); err == nil {
			if off, err := f.Seek(0, io.SeekEnd); err == nil {
				n += off
			}
			f.Close()
		}
	}
	return n
}

// Commit logs a mutation batch atomically under the next data version,
// which it returns: the batch is validated, appended to the WAL and
// fsynced, and only then does the version move. A failed validation or
// write leaves the store exactly as it was. Asserting a present fact or
// retracting an absent one is a committed no-op (it still produces a
// version). The caller applies the batch to its facts, then compacts
// when CompactDue says so.
func (s *Store) Commit(ms []Mutation) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.roErr != nil {
		return 0, errors.Join(ErrReadOnly, s.roErr)
	}
	if len(ms) == 0 {
		return 0, errors.New("live: empty mutation batch")
	}
	for _, m := range ms {
		if m.Op != OpAssert && m.Op != OpRetract {
			return 0, fmt.Errorf("live: unknown mutation op %d", m.Op)
		}
		if !m.Atom.IsGround() {
			return 0, fmt.Errorf("live: %s %s: fact is not ground", m.Op, m.Atom)
		}
		if len(m.Atom.Args) > 1024 {
			return 0, fmt.Errorf("live: %s %s: implausible arity %d", m.Op, m.Atom, len(m.Atom.Args))
		}
	}

	// Durability first: the record reaches disk before the version moves,
	// so an acknowledged commit can never be lost and a failed write never
	// leaves a half-applied batch. Any failure here degrades the store to
	// read-only: after a failed append or fsync the on-disk suffix is
	// unknowable (the truncate below is best-effort, and post-EIO
	// page-cache state is not trustworthy), so appending further records
	// could corrupt the WAL interior — recovery hard-fails on that, which
	// would turn one lost commit into a lost store.
	record := encodeRecord(s.version+1, ms)
	off, err := s.wal.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, s.degradeLocked(fmt.Errorf("live: WAL seek: %w", err), true)
	}
	if _, err := s.wal.Write(record); err != nil {
		// Cut the possibly partial record back off so the surviving prefix
		// stays parseable for recovery; a clean cut also keeps a transient
		// failure (ENOSPC) recoverable in place.
		terr := s.wal.Truncate(off)
		return 0, s.degradeLocked(fmt.Errorf("live: WAL append: %w", err), terr == nil)
	}
	if err := s.syncFile(s.wal); err != nil {
		terr := s.wal.Truncate(off)
		return 0, s.degradeLocked(err, terr == nil)
	}

	s.version++
	s.sinceSnap++
	s.appendTailLocked(Record{Version: s.version, Muts: append([]Mutation(nil), ms...)})
	s.broadcastLocked()
	return s.version, nil
}

// Version returns the current data version.
func (s *Store) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// SinceSnapshot returns the number of commits since the last compaction
// (or since Open, if none has happened) — the length of the WAL tail a
// crash right now would replay.
func (s *Store) SinceSnapshot() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sinceSnap
}

// CompactDue reports whether the compaction policy calls for a snapshot:
// every SnapshotEvery commits, and with force (after a reset, and on a
// clean close) whenever a commit or reset has landed since the last
// compaction. A store without a SnapshotPath, or closed, or degraded,
// never compacts.
func (s *Store) CompactDue(force bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.SnapshotPath != "" && !s.closed && s.roErr == nil &&
		(force && s.sinceSnap > 0 || s.cfg.SnapshotEvery > 0 && s.sinceSnap >= s.cfg.SnapshotEvery)
}

// Compact folds the WAL into a snapshot of facts, the fact set at the
// store's current version sorted by canonical text (SortFacts); callers
// ask CompactDue first. A failure is logged and returned: the WAL still
// holds every commit, so it only delays the next compaction — unless it
// degraded the store (see compactLocked).
func (s *Store) Compact(facts []ast.Atom) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.SnapshotPath == "" || s.closed || s.roErr != nil {
		return errors.New("live: compaction needs an open, writable store with a SnapshotPath")
	}
	err := s.compactLocked(facts)
	if err != nil {
		s.log.Error("live: compaction failed", "err", err)
	}
	return err
}

// compactLocked writes snapshot.tmp, renames it over the snapshot and
// makes the rename durable, then writes wal.tmp (header only, base =
// current version), renames it over the WAL and makes that durable too.
// The directory fsync between the renames is load-bearing: without it a
// crash could persist the WAL rotation but not the snapshot rename,
// recovering an old snapshot under a WAL whose records start past it —
// silently losing every commit in between. A crash after the snapshot
// rename but before the rotation merely leaves a snapshot newer than
// the WAL's base, which replay tolerates (see wal.go).
//
// Failures before the rotation's rename abort the compaction and leave
// the store writable: the old WAL still covers every commit. A failure
// making the rotation durable degrades the store instead — once the
// directory points at the rotated WAL, appends land there, and if the
// rotation itself could be rolled back by a crash those appends could
// not be guaranteed to survive.
func (s *Store) compactLocked(facts []ast.Atom) error {
	prog := &ast.Program{Rules: s.rules.Rules, Queries: s.rules.Queries, Facts: facts}
	tmp := s.cfg.SnapshotPath + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("live: snapshot tmp: %w", err)
	}
	bw := bufio.NewWriter(f)
	err = storage.Write(bw, prog)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return fmt.Errorf("live: writing snapshot: %w", err)
	}
	if err := s.syncFile(f); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, s.cfg.SnapshotPath); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("live: snapshot rename: %w", err)
	}
	if err := s.syncDir(s.cfg.SnapshotPath); err != nil {
		return err
	}

	// Rotate the WAL: fresh header at the snapshot's (now durable) version.
	walTmp := s.cfg.WALPath + ".tmp"
	nf, err := s.fs.OpenFile(walTmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("live: WAL tmp: %w", err)
	}
	if _, err := nf.Write(encodeHeader(s.version)); err != nil {
		nf.Close()
		s.fs.Remove(walTmp)
		return fmt.Errorf("live: writing rotated WAL header: %w", err)
	}
	if err := s.syncFile(nf); err != nil {
		nf.Close()
		s.fs.Remove(walTmp)
		return err
	}
	if err := s.fs.Rename(walTmp, s.cfg.WALPath); err != nil {
		nf.Close()
		s.fs.Remove(walTmp)
		return fmt.Errorf("live: WAL rotate rename: %w", err)
	}
	// The directory now points at the rotated file; the handle must swap
	// with it no matter what happens next, or acked commits would keep
	// appending to the unlinked old WAL.
	s.wal.Close()
	s.wal = nf
	s.sinceSnap = 0
	if err := s.syncDir(s.cfg.WALPath); err != nil {
		// Recoverable when transient: the rotated file is already the
		// directory's target and the handle is swapped; a later successful
		// directory fsync (TryRecover) makes the rotation durable.
		return s.degradeLocked(fmt.Errorf("live: WAL rotation: %w", err), true)
	}
	s.log.Info("live: compacted",
		"snapshot", s.cfg.SnapshotPath, "version", s.version, "facts", len(facts))
	return nil
}

// appendTailLocked pushes one record onto the stream ring, overwriting
// the oldest once the ring holds StreamTailLen.
func (s *Store) appendTailLocked(r Record) {
	if len(s.tail) < s.cfg.StreamTailLen {
		s.tail = append(s.tail, r)
		return
	}
	s.tail[s.tailHead] = r
	s.tailHead = (s.tailHead + 1) % len(s.tail)
}

// broadcastLocked wakes everyone blocked on Updates.
func (s *Store) broadcastLocked() {
	close(s.changed)
	s.changed = make(chan struct{})
}

// Updates returns a channel that is closed when the store moves past the
// current version (a commit or a reset). Callers re-arm by calling
// Updates again after each wakeup: grab the channel, re-check the
// version, then block — in that order, or a commit landing in between is
// missed until the next one.
func (s *Store) Updates() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.changed
}

// RecordsSince returns the commit records with versions in (from,
// current], in order. ok is false when the in-memory ring no longer
// reaches back to from+1 — the caller (a replication follower) must
// bootstrap from a snapshot instead. A from at or past the current
// version returns (nil, true): caught up.
func (s *Store) RecordsSince(from uint64) ([]Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from >= s.version {
		return nil, true
	}
	horizon := s.horizonLocked()
	if from < horizon {
		return nil, false
	}
	out := make([]Record, 0, s.version-from)
	for i := from - horizon; i < uint64(len(s.tail)); i++ {
		out = append(out, s.tail[(s.tailHead+int(i))%len(s.tail)])
	}
	return out, true
}

// StreamHorizon reports the lowest version a follower may resume
// streaming from (the largest version already folded out of the ring);
// a follower at an older version must snapshot-bootstrap.
func (s *Store) StreamHorizon() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.horizonLocked()
}

// horizonLocked is the version just before the ring's oldest record.
func (s *Store) horizonLocked() uint64 { return s.version - uint64(len(s.tail)) }

// ResetToFacts atomically replaces the whole fact set, jumping the store
// to the given version — how a replication follower installs a snapshot
// fetched from its primary. The reset is a single durable WAL append
// (fsynced before the version moves), so a crash at any point leaves
// either the old state or the new one, never a mixture. version must be
// ahead of the current one. The caller then installs facts and compacts
// when CompactDue(true) says so, folding the (fact-set-sized) reset
// record out of the WAL when a snapshot path is configured.
func (s *Store) ResetToFacts(facts []ast.Atom, version uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.roErr != nil {
		return errors.Join(ErrReadOnly, s.roErr)
	}
	if version <= s.version {
		return fmt.Errorf("live: reset to version %d would not advance the store (at %d)", version, s.version)
	}
	for _, a := range facts {
		if !a.IsGround() {
			return fmt.Errorf("live: reset fact %s is not ground", a)
		}
	}
	record := encodeResetRecord(version, facts)
	off, err := s.wal.Seek(0, io.SeekEnd)
	if err != nil {
		return s.degradeLocked(fmt.Errorf("live: WAL seek: %w", err), true)
	}
	if _, err := s.wal.Write(record); err != nil {
		terr := s.wal.Truncate(off)
		return s.degradeLocked(fmt.Errorf("live: WAL reset append: %w", err), terr == nil)
	}
	if err := s.syncFile(s.wal); err != nil {
		terr := s.wal.Truncate(off)
		return s.degradeLocked(err, terr == nil)
	}
	s.version = version
	s.sinceSnap++
	// Records before the jump cannot seed a contiguous catch-up chain any
	// more; followers of this store (chained replicas) must re-bootstrap.
	s.tail, s.tailHead = nil, 0
	s.broadcastLocked()
	return nil
}

// Close closes the WAL; further operations fail with ErrClosed. A clean
// shutdown compacts first when CompactDue(true), so a restart replays nothing
// (a degraded store skips that compaction — the WAL already holds
// everything that was acknowledged, and the disk is not to be trusted).
// Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.Close()
}
