package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hypodatalog/internal/tenant"
)

// gateMinVersion enforces the X-Hdl-Min-Version read-your-writes
// contract: a client that just wrote at version V sends V on its next
// read and is never answered from older data, whichever node it lands
// on. A read at or past the demanded version proceeds immediately; an
// earlier one waits (bounded by Config.MinVersionWait) for the local
// store to catch up, then is refused with 503 kind "stale" + Retry-After
// if it has not. Returns false when the response has been written.
//
// The version compared is the one leases are served at (Pool.Version,
// what WaitVersion waits on), not the store's: a commit advances the
// store before it publishes to the pool, and a read admitted in that
// window would still be answered at the old version.
func (s *Server) gateMinVersion(ctx context.Context, w http.ResponseWriter, r *http.Request, ri *reqInfo, t *tenant.Tenant) bool {
	h := r.Header.Get("X-Hdl-Min-Version")
	if h == "" {
		return true
	}
	min, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		ri.outcome = "bad_request"
		writeError(w, http.StatusBadRequest, "bad_request", "X-Hdl-Min-Version is not a uint64")
		return false
	}
	ri.minVersion = min
	if t.Pool().Version() >= min {
		return true
	}
	if t.Live() == nil {
		// A static server can never reach the demanded version.
		s.refuseStale(w, ri, t, min)
		return false
	}
	t.Metrics().ReplMinVersionWaits.Inc()
	wctx, cancel := context.WithTimeout(ctx, s.cfg.MinVersionWait)
	defer cancel()
	if err := t.Live().WaitVersion(wctx, min); err != nil {
		t.Metrics().ReplMinVersionTimeouts.Inc()
		s.refuseStale(w, ri, t, min)
		return false
	}
	return true
}

// refuseStale answers a read whose X-Hdl-Min-Version the node could not
// reach in time: 503 kind "stale" with Retry-After and the version the
// node IS at, so the client can retry here later or fall back to the
// primary.
func (s *Server) refuseStale(w http.ResponseWriter, ri *reqInfo, t *tenant.Tenant, min uint64) {
	ri.outcome = "stale"
	retry := strconv.Itoa(int((s.cfg.RetryAfter + time.Second - 1) / time.Second))
	w.Header().Set("Retry-After", retry)
	w.Header().Set("X-Hdl-Version", strconv.FormatUint(t.Version(), 10))
	writeError(w, http.StatusServiceUnavailable, "stale",
		fmt.Sprintf("data version %d not yet replicated here (at %d); retry or read the primary", min, t.Version()))
}

// proxyFacts forwards a write landing on a replica to the primary, so
// clients can POST /v1/facts to any node. The response — including the
// committed version the client will use as its next X-Hdl-Min-Version —
// is relayed verbatim, plus an X-Hdl-Proxied marker.
//
// The forward is governed by the proxy circuit breaker: while the
// primary is deemed dead, writes fail fast with 503 primary_unreachable
// + Retry-After instead of each burning a dial timeout. Every attempt
// runs under its own deadline (ProxyAttemptTimeout, clamped by the
// inbound request's context, which still bounds the whole exchange),
// and dial-level failures — where the request provably never reached
// the primary, so a retry cannot double-commit — are retried with
// jittered exponential backoff up to ProxyRetries times.
func (s *Server) proxyFacts(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		ri.outcome = "too_large"
		writeError(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
		return
	}
	proceed, probe := s.proxyBr.allow()
	if !proceed {
		s.mets.ProxyFastFails.Inc()
		ri.outcome = "primary_unreachable"
		w.Header().Set("Retry-After", s.retryAfterSecs())
		writeError(w, http.StatusServiceUnavailable, "primary_unreachable",
			"primary is unreachable (circuit open); retry later or write to the primary directly")
		return
	}
	url := strings.TrimRight(s.cfg.PrimaryURL, "/") + "/v1/facts"
	var resp *http.Response
	var cancel context.CancelFunc
	for attempt := 0; ; attempt++ {
		resp, cancel, err = s.proxyAttempt(r, url, body)
		if err == nil || attempt >= s.cfg.ProxyRetries ||
			!requestNotSent(err) || r.Context().Err() != nil {
			break
		}
		s.mets.ProxyRetries.Inc()
		d := s.cfg.ProxyBackoff << attempt
		d = d/2 + time.Duration(rand.Int64N(int64(d/2)+1)) // jitter in [d/2, d]
		select {
		case <-time.After(d):
		case <-r.Context().Done():
		}
	}
	if err != nil {
		s.proxyBr.failure(probe)
		ri.outcome = "primary_unreachable"
		writeError(w, http.StatusBadGateway, "primary_unreachable",
			"write could not be forwarded to the primary: "+err.Error())
		return
	}
	defer cancel()
	defer resp.Body.Close()
	// Any response — even a 5xx status — proves the primary reachable;
	// its status is the primary's answer to relay, not a transport fault.
	s.proxyBr.success(probe)
	s.mets.ReplProxiedWrites.Inc()
	ri.outcome = "proxied"
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Hdl-Proxied", "primary")
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// proxyAttempt issues one forwarded write under its own clamped
// deadline. On success the caller must run cancel only after it has
// drained the response body (cancelling the context aborts the read).
func (s *Server) proxyAttempt(r *http.Request, url string, body []byte) (*http.Response, context.CancelFunc, error) {
	actx, cancel := context.WithTimeout(r.Context(), s.cfg.ProxyAttemptTimeout)
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.cfg.ProxyClient.Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return resp, cancel, nil
}

// requestNotSent reports whether a transport error proves the request
// never reached the primary — a failed dial or a refused connection.
// Only those are safe to retry: /v1/facts is not idempotent (every
// commit mints a version), so an error after the request may have been
// delivered must surface to the client instead of re-posting.
func requestNotSent(err error) bool {
	var oe *net.OpError
	if errors.As(err, &oe) && oe.Op == "dial" {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

// retryAfterSecs renders Config.RetryAfter as a whole-seconds header
// value (rounded up).
func (s *Server) retryAfterSecs() string {
	return strconv.Itoa(int((s.cfg.RetryAfter + time.Second - 1) / time.Second))
}
