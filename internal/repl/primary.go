package repl

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/live"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/storage"
)

// Source is what a primary streams from: a live store's WAL tail and
// snapshots of its facts. *hypo.Live satisfies it.
type Source interface {
	// Version is the current committed data version.
	Version() uint64
	// StreamHorizon is the oldest version the in-memory tail can resume
	// from: RecordsSince(from) succeeds for any from >= StreamHorizon().
	StreamHorizon() uint64
	// RecordsSince returns the committed records with versions in
	// (from, Version()]; ok=false when the tail no longer reaches back to
	// from+1 (the follower must bootstrap). A caught-up follower gets
	// (nil, true).
	RecordsSince(from uint64) ([]Record, bool)
	// Updates returns a channel closed on the next commit.
	Updates() <-chan struct{}
	// SnapshotProgram returns the program (rules + current facts) and the
	// version it is consistent at, atomically.
	SnapshotProgram() (*ast.Program, uint64)
}

// Record is one committed WAL record; an alias for live.Record so
// Source implementations and tests need not name the live package.
type Record = live.Record

// PrimaryConfig configures a streaming primary.
type PrimaryConfig struct {
	// Source is the store to stream from (required).
	Source Source
	// RulesHash fingerprints the primary's rule set; stream requests
	// carrying a different X-Hdl-Rules-Hash are refused with 409.
	RulesHash uint64
	// Heartbeat is the idle-stream heartbeat interval; 0 means 2s.
	Heartbeat time.Duration
	// Logger receives stream lifecycle events; nil discards them.
	Logger *slog.Logger
	// Metrics is the metric set replication counters report into; nil
	// means metrics.Default.
	Metrics *metrics.Set
}

// Primary serves the replication endpoints over an existing live store.
// It holds no state of its own beyond configuration: followers track
// their own positions and resume by version, so a primary restart
// forgets nothing that matters.
type Primary struct {
	cfg PrimaryConfig
}

// NewPrimary builds a Primary over src.
func NewPrimary(cfg PrimaryConfig) *Primary {
	if cfg.Source == nil {
		panic("repl: PrimaryConfig.Source is required")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default
	}
	return &Primary{cfg: cfg}
}

// writeError mirrors the server package's JSON error shape
// ({"error":{"kind","message"}}) without importing it.
func writeError(w http.ResponseWriter, status int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]string{"kind": kind, "message": msg},
	})
}

// checkRulesHash enforces the rule-set compatibility gate when the
// request carries the header; requests without it (curl, older
// followers) pass.
func (p *Primary) checkRulesHash(w http.ResponseWriter, r *http.Request) bool {
	h := r.Header.Get("X-Hdl-Rules-Hash")
	if h == "" {
		return true
	}
	v, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "X-Hdl-Rules-Hash is not a uint64")
		return false
	}
	if v != p.cfg.RulesHash {
		writeError(w, http.StatusConflict, "rules_mismatch",
			fmt.Sprintf("follower rules hash %d does not match primary %d; replication requires identical programs", v, p.cfg.RulesHash))
		return false
	}
	return true
}

// ServeSnapshot streams the full fact base in storage.Write format,
// with the version it is consistent at in X-Hdl-Version. The snapshot
// is taken atomically against the store, so a follower installing it
// and then tailing from its version sees every commit exactly once.
func (p *Primary) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	if !p.checkRulesHash(w, r) {
		return
	}
	prog, ver := p.cfg.Source.SnapshotProgram()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Hdl-Version", strconv.FormatUint(ver, 10))
	if err := storage.Write(w, prog); err != nil {
		// Headers are gone; all we can do is log and cut the stream so the
		// follower sees a short read, not a silently truncated snapshot.
		p.cfg.Logger.Error("repl: snapshot stream failed", "err", err)
		return
	}
	p.cfg.Metrics.ReplSnapshotsServed.Inc()
	p.cfg.Logger.Info("repl: served bootstrap snapshot", "version", ver, "remote", r.RemoteAddr)
}

// ServeStream tails committed WAL records to one follower from
// ?from=<version> (exclusive): first an immediate heartbeat carrying
// the primary's version, then every record after `from` as it commits,
// with heartbeats while idle. The response stays open until the
// follower disconnects or its resume point ages out of the tail (a
// Gone frame, telling it to re-bootstrap).
func (p *Primary) ServeStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	if !p.checkRulesHash(w, r) {
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "?from must be a uint64 data version")
		return
	}
	src := p.cfg.Source
	if v := src.Version(); from > v {
		writeError(w, http.StatusConflict, "ahead",
			fmt.Sprintf("follower is at version %d but primary is at %d; refusing to stream (split brain or restored backup)", from, v))
		return
	}
	if h := src.StreamHorizon(); from < h {
		w.Header().Set("X-Hdl-Stream-Horizon", strconv.FormatUint(h, 10))
		writeError(w, http.StatusGone, "snapshot_required",
			fmt.Sprintf("version %d has aged out of the stream tail (horizon %d); bootstrap from /v1/repl/snapshot", from, h))
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)

	p.cfg.Metrics.ReplStreams.Inc()
	defer p.cfg.Metrics.ReplStreams.Dec()
	p.cfg.Logger.Info("repl: stream opened", "from", from, "remote", r.RemoteAddr)
	defer p.cfg.Logger.Info("repl: stream closed", "remote", r.RemoteAddr)

	heartbeat := func() error {
		var buf []byte
		buf = binary.AppendUvarint(buf, src.Version())
		if err := writeFrame(w, frameHeartbeat, buf); err != nil {
			return err
		}
		p.cfg.Metrics.ReplFramesSent.Inc()
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	// An immediate heartbeat lets the follower mark itself caught up (and
	// ready) without waiting for traffic.
	if heartbeat() != nil {
		return
	}

	ticker := time.NewTicker(p.cfg.Heartbeat)
	defer ticker.Stop()
	cur := from
	for {
		// Grab the update channel BEFORE draining: a commit landing between
		// the drain and the select closes the channel we already hold, so
		// it cannot be missed.
		ch := src.Updates()
		recs, ok := src.RecordsSince(cur)
		if !ok {
			// The resume point aged out mid-stream (the follower fell more
			// than a tail's length behind). Say so explicitly.
			_ = writeFrame(w, frameGone, nil)
			p.cfg.Metrics.ReplFramesSent.Inc()
			if flusher != nil {
				flusher.Flush()
			}
			p.cfg.Logger.Warn("repl: follower fell behind the stream tail", "at", cur, "horizon", src.StreamHorizon())
			return
		}
		for _, rec := range recs {
			if err := writeFrame(w, frameRecord, live.EncodeRecordPayload(rec)); err != nil {
				return
			}
			p.cfg.Metrics.ReplFramesSent.Inc()
			cur = rec.Version
		}
		if len(recs) > 0 && flusher != nil {
			flusher.Flush()
		}
		select {
		case <-ch:
		case <-ticker.C:
			if heartbeat() != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// Mount registers the replication endpoints on mux.
func (p *Primary) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/v1/repl/snapshot", p.ServeSnapshot)
	mux.HandleFunc("/v1/repl/stream", p.ServeStream)
}
