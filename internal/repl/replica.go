package repl

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hypodatalog/internal/live"
	"hypodatalog/internal/metrics"
)

// Target is the local store a replica applies streamed state into;
// *hypo.Live satisfies it.
type Target interface {
	// Version is the applied data version.
	Version() uint64
	// ApplyReplicated applies one streamed record; the record's version
	// must be exactly Version()+1.
	ApplyReplicated(rec live.Record) (live.CommitInfo, error)
	// InstallSnapshot replaces the fact base with a bootstrap snapshot
	// (storage.Write format) at the given version.
	InstallSnapshot(rd io.Reader, version uint64) error
}

// ReplicaConfig configures a tailing replica.
type ReplicaConfig struct {
	// Primary is the primary's base URL, e.g. "http://10.0.0.1:8080"
	// (required).
	Primary string
	// Target is the local store (required).
	Target Target
	// RulesHash fingerprints the local rule set; sent on every request so
	// an incompatible primary refuses us immediately.
	RulesHash uint64
	// Client issues the HTTP requests; nil means a default client with no
	// overall timeout (the stream is long-lived; liveness comes from
	// StreamTimeout below).
	Client *http.Client
	// StreamTimeout is the longest silence (no frame, not even a
	// heartbeat) tolerated on an open stream before it is torn down and
	// re-established; 0 means 10s.
	StreamTimeout time.Duration
	// BackoffMin/BackoffMax bound the exponential reconnect backoff;
	// 0 means 50ms / 5s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Logger receives lifecycle events; nil discards them.
	Logger *slog.Logger
	// OnApply, when non-nil, is called after every applied record and
	// installed snapshot with the new applied version (tests use it to
	// wait for convergence without polling).
	OnApply func(version uint64)
	// Metrics is the metric set replication counters report into; nil
	// means metrics.Default.
	Metrics *metrics.Set
}

// Status is a point-in-time snapshot of a replica's replication state.
type Status struct {
	// Connected reports whether a tail stream is currently open.
	Connected bool
	// Ready reports whether the replica has, at least once since
	// starting, caught up to the primary's advertised version. It is
	// sticky: a replica that was caught up and lags again stays Ready
	// (readiness gates traffic admission, lag is reported separately).
	Ready bool
	// Applied is the locally applied data version; Primary is the
	// primary's last advertised one (0 until the first heartbeat).
	Applied uint64
	Primary uint64
	// Bootstraps and Reconnects count snapshot bootstraps and stream
	// re-establishments since Start.
	Bootstraps uint64
	Reconnects uint64
	// LastError is the most recent stream/bootstrap error, cleared on a
	// healthy reconnect.
	LastError string
}

// Lag is how many versions the replica trails the primary's last
// advertised version (0 when caught up or not yet connected).
func (s Status) Lag() uint64 {
	if s.Primary > s.Applied {
		return s.Primary - s.Applied
	}
	return 0
}

// Replica tails a primary in a background goroutine: bootstrap from a
// snapshot when needed, then apply streamed records, reconnecting with
// backoff forever until Close.
type Replica struct {
	cfg    ReplicaConfig
	cancel context.CancelFunc
	done   chan struct{}

	mu sync.Mutex
	st Status
}

// errSnapshotRequired is the internal signal that the stream position
// is unservable and the replica must bootstrap.
var errSnapshotRequired = errors.New("repl: snapshot required")

// Start begins replicating in the background and returns immediately.
func Start(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Primary == "" {
		return nil, errors.New("repl: ReplicaConfig.Primary is required")
	}
	if cfg.Target == nil {
		return nil, errors.New("repl: ReplicaConfig.Target is required")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.StreamTimeout <= 0 {
		cfg.StreamTimeout = 10 * time.Second
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replica{cfg: cfg, cancel: cancel, done: make(chan struct{})}
	r.st.Applied = cfg.Target.Version()
	cfg.Metrics.ReplAppliedVersion.Set(int64(r.st.Applied))
	go r.run(ctx)
	return r, nil
}

// Close stops replicating and waits for the background goroutine to
// exit. The local store keeps serving its applied version.
func (r *Replica) Close() {
	r.cancel()
	<-r.done
}

// Status snapshots the replication state.
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

// run is the reconnect loop: stream until it fails, bootstrap when told
// to, back off exponentially between attempts, reset the backoff after
// any productive connection.
func (r *Replica) run(ctx context.Context) {
	defer close(r.done)
	defer r.setConnected(false)
	backoff := r.cfg.BackoffMin
	for ctx.Err() == nil {
		err := r.streamOnce(ctx)
		if errors.Is(err, errSnapshotRequired) {
			if berr := r.bootstrap(ctx); berr != nil {
				r.noteError(berr)
				r.cfg.Logger.Warn("repl: bootstrap failed", "err", berr)
			} else {
				backoff = r.cfg.BackoffMin
				continue // tail immediately from the fresh snapshot
			}
		} else if err != nil && ctx.Err() == nil {
			r.noteError(err)
			r.cfg.Logger.Warn("repl: stream failed", "err", err)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > r.cfg.BackoffMax {
			backoff = r.cfg.BackoffMax
		}
	}
}

func (r *Replica) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(r.cfg.Primary, "/")+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Hdl-Rules-Hash", strconv.FormatUint(r.cfg.RulesHash, 10))
	return r.cfg.Client.Do(req)
}

// bodySnippet drains up to 256 bytes of an error response for the log.
func bodySnippet(rd io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(rd, 256))
	return strings.TrimSpace(string(b))
}

// streamOnce opens one tail stream from the current applied version and
// applies frames until it breaks. A nil return means a clean
// disconnect; errSnapshotRequired means bootstrap first.
func (r *Replica) streamOnce(ctx context.Context) error {
	from := r.cfg.Target.Version()
	resp, err := r.get(ctx, "/v1/repl/stream?from="+strconv.FormatUint(from, 10))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return errSnapshotRequired
	default:
		return fmt.Errorf("repl: stream refused: %s: %s", resp.Status, bodySnippet(resp.Body))
	}

	r.bumpReconnects()
	r.setConnected(true)
	defer r.setConnected(false)
	r.cfg.Logger.Info("repl: stream connected", "from", from, "primary", r.cfg.Primary)

	// The watchdog enforces StreamTimeout between frames: heartbeats
	// arrive every couple of seconds on a healthy stream, so a silent
	// peer (partition, hung conn) is cut instead of trusted forever.
	wd := time.AfterFunc(r.cfg.StreamTimeout, func() { resp.Body.Close() })
	defer wd.Stop()

	br := bufio.NewReader(resp.Body)
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if err == io.EOF {
				return fmt.Errorf("repl: primary closed the stream")
			}
			return err
		}
		wd.Reset(r.cfg.StreamTimeout)
		switch typ {
		case frameHeartbeat:
			v, n := binary.Uvarint(payload)
			if n <= 0 {
				return fmt.Errorf("repl: malformed heartbeat payload")
			}
			r.notePrimary(v)
		case frameRecord:
			rec, err := live.DecodeRecordPayload(payload)
			if err != nil {
				return err
			}
			if _, err := r.cfg.Target.ApplyReplicated(rec); err != nil {
				// A version gap means the stream and store diverged —
				// re-bootstrap. Anything else (validation, disk) is fatal for
				// this stream and will be retried from the reconnect loop.
				return fmt.Errorf("repl: applying version %d: %w", rec.Version, err)
			}
			r.cfg.Metrics.ReplRecordsApplied.Inc()
			r.noteApplied(rec.Version)
			if r.cfg.OnApply != nil {
				r.cfg.OnApply(rec.Version)
			}
		case frameGone:
			return errSnapshotRequired
		default:
			return fmt.Errorf("repl: unknown frame type %q", typ)
		}
	}
}

// bootstrap downloads and installs a full snapshot. It refuses a
// snapshot that does not advance the local version: retrying the stream
// is then correct (we are at or ahead of the primary's snapshot), and
// installing it would either rewind or spin in a hot
// stream-410/bootstrap loop.
func (r *Replica) bootstrap(ctx context.Context) error {
	resp, err := r.get(ctx, "/v1/repl/snapshot")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: snapshot refused: %s: %s", resp.Status, bodySnippet(resp.Body))
	}
	ver, err := strconv.ParseUint(resp.Header.Get("X-Hdl-Version"), 10, 64)
	if err != nil {
		return fmt.Errorf("repl: snapshot response has no X-Hdl-Version")
	}
	if local := r.cfg.Target.Version(); ver <= local {
		return fmt.Errorf("repl: snapshot version %d does not advance local version %d", ver, local)
	}
	if err := r.cfg.Target.InstallSnapshot(resp.Body, ver); err != nil {
		return err
	}
	r.cfg.Metrics.ReplBootstraps.Inc()
	r.mu.Lock()
	r.st.Bootstraps++
	r.mu.Unlock()
	r.noteApplied(ver)
	if r.cfg.OnApply != nil {
		r.cfg.OnApply(ver)
	}
	r.cfg.Logger.Info("repl: bootstrapped from snapshot", "version", ver)
	return nil
}

func (r *Replica) setConnected(c bool) {
	r.mu.Lock()
	r.st.Connected = c
	r.mu.Unlock()
	if c {
		r.cfg.Metrics.ReplConnected.Set(1)
	} else {
		r.cfg.Metrics.ReplConnected.Set(0)
	}
}

func (r *Replica) bumpReconnects() {
	r.mu.Lock()
	r.st.Reconnects++
	n := r.st.Reconnects
	r.mu.Unlock()
	if n > 1 {
		r.cfg.Metrics.ReplReconnects.Inc()
	}
}

func (r *Replica) noteError(err error) {
	r.mu.Lock()
	r.st.LastError = err.Error()
	r.mu.Unlock()
}

func (r *Replica) notePrimary(v uint64) {
	r.mu.Lock()
	r.st.Primary = v
	r.st.LastError = ""
	if r.st.Applied >= v {
		r.st.Ready = true
	}
	lag := r.st.Lag()
	r.mu.Unlock()
	r.cfg.Metrics.ReplPrimaryVersion.Set(int64(v))
	r.cfg.Metrics.ReplLag.Set(int64(lag))
}

func (r *Replica) noteApplied(v uint64) {
	r.mu.Lock()
	r.st.Applied = v
	if r.st.Primary <= v {
		r.st.Ready = true
	}
	lag := r.st.Lag()
	r.mu.Unlock()
	r.cfg.Metrics.ReplAppliedVersion.Set(int64(v))
	r.cfg.Metrics.ReplLag.Set(int64(lag))
}
