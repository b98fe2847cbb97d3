package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"

	"hypodatalog/internal/tenant"
)

// explainRequest is the body of /v1/explain: one ground query whose
// derivation (or lack of one) should be rendered.
type explainRequest struct {
	Query   string `json:"query"`
	Timeout string `json:"timeout,omitempty"`
}

// explainResponse carries the rendered proof tree. Provable false means
// the query has no derivation at this data version; Proof is then "".
type explainResponse struct {
	Provable    bool   `json:"provable"`
	Proof       string `json:"proof,omitempty"`
	DataVersion uint64 `json:"dataVersion"`
}

// handleExplain renders the derivation of one ground query — the HTTP
// surface of Engine.Explain. Explanation is evaluation work (it re-runs
// the proof search with recording on), so it takes an admission slot
// and the standard error-status table applies.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, ri *reqInfo, t *tenant.Tenant) {
	var req explainRequest
	if !s.decode(w, r, ri, &req) {
		return
	}
	ri.query = req.Query
	ctx, done, ok := s.admit(w, r, ri, t, req.Timeout)
	if !ok {
		return
	}
	defer done()
	proof, info, err := t.Pool().ExplainCtx(ctx, req.Query)
	ri.dataVersion = info.DataVersion
	ri.stats = info.Stats
	if err != nil {
		s.evalError(w, ri, err)
		return
	}
	writeJSON(w, explainResponse{
		Provable:    proof != "",
		Proof:       proof,
		DataVersion: info.DataVersion,
	})
}

// programPutRequest is the body of PUT /v1/programs/{name}: the full
// rulebase of the program to create.
type programPutRequest struct {
	Program string `json:"program"`
}

// programInfo describes one registered program in admin responses.
type programInfo struct {
	Name        string `json:"name"`
	DataVersion uint64 `json:"dataVersion"`
	RulesHash   string `json:"rulesHash"`
	Status      string `json:"status"`
	Program     string `json:"program,omitempty"` // GET /v1/programs/{name} only
	Created     *bool  `json:"created,omitempty"` // PUT only
}

func infoFor(t *tenant.Tenant) programInfo {
	st := "ok"
	if degraded, _ := t.Degraded(); degraded {
		st = "degraded"
	}
	if t.Draining() {
		st = "draining"
	}
	return programInfo{
		Name:        t.Name(),
		DataVersion: t.Version(),
		RulesHash:   strconv.FormatUint(t.RulesHash(), 16),
		Status:      st,
	}
}

// adminError maps registry errors onto the error-status table: bad
// names and rulebases are 400, an unknown program is 404, a rules
// conflict is 409, a static registry is 501, a closed/draining registry
// is 503.
func (s *Server) adminError(w http.ResponseWriter, ri *reqInfo, err error) {
	switch {
	case errors.Is(err, tenant.ErrBadName), errors.Is(err, tenant.ErrBadProgram),
		errors.Is(err, tenant.ErrProtected):
		ri.outcome = "bad_request"
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
	case errors.Is(err, tenant.ErrUnknown):
		ri.outcome = "unknown_program"
		writeError(w, http.StatusNotFound, "unknown_program", err.Error())
	case errors.Is(err, tenant.ErrConflict):
		ri.outcome = "conflict"
		writeError(w, http.StatusConflict, "conflict",
			err.Error()+" (delete it first; rules are never swapped under live traffic)")
	case errors.Is(err, tenant.ErrStatic):
		ri.outcome = "not_enabled"
		writeError(w, http.StatusNotImplemented, "not_enabled",
			"program administration is disabled: start the server with a programs directory (hdld -programs-dir)")
	case errors.Is(err, tenant.ErrClosed), errors.Is(err, tenant.ErrDraining):
		ri.outcome = "draining"
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
	default:
		ri.outcome = "internal"
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// handleProgramsList answers GET /v1/programs: every registered program
// with its data version and status.
func (s *Server) handleProgramsList(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	tenants := s.reg.List()
	out := make([]programInfo, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, infoFor(t))
	}
	writeJSON(w, map[string]any{
		"programs": out,
		"default":  s.reg.DefaultName(),
	})
}

// handleProgramGet answers GET /v1/programs/{name}: the program's
// source plus the same info the list carries.
func (s *Server) handleProgramGet(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	t, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		s.adminError(w, ri, err)
		return
	}
	info := infoFor(t)
	info.Program = t.Source()
	writeJSON(w, info)
}

// handleProgramPut answers PUT /v1/programs/{name}: register a new
// program (201), or 200 unchanged when the same rulebase is already
// registered under that name. A different rulebase is a 409 — programs
// are replaced by delete + create, never swapped in place.
func (s *Server) handleProgramPut(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	if s.draining.Load() {
		s.adminError(w, ri, tenant.ErrDraining)
		return
	}
	var req programPutRequest
	if !s.decode(w, r, ri, &req) {
		return
	}
	if req.Program == "" {
		ri.outcome = "bad_request"
		writeError(w, http.StatusBadRequest, "bad_request", `"program" must be the non-empty rulebase source`)
		return
	}
	t, created, err := s.reg.Create(r.PathValue("name"), req.Program)
	if err != nil {
		s.adminError(w, ri, err)
		return
	}
	info := infoFor(t)
	info.Created = &created
	if created {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
	}
	writeJSON(w, info)
}

// handleProgramDelete answers DELETE /v1/programs/{name}: two-phase
// drain (new requests 503, in-flight bounded by the server's max
// timeout), close the stores, remove the state directory. The default
// program is protected (400).
func (s *Server) handleProgramDelete(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxTimeout)
	defer cancel()
	if err := s.reg.Delete(ctx, r.PathValue("name")); err != nil {
		s.adminError(w, ri, err)
		return
	}
	writeJSON(w, map[string]any{"deleted": true, "name": r.PathValue("name")})
}
