package serve

// Wiring between the HTTP serving layer and the self-healing model
// lifecycle (internal/lifecycle). The server owns the manager: it seeds
// the registry's active-version pointer with the configured default
// detector, feeds watch-session stream events into the drift debouncer,
// mirrors every authoritative classification into the shadow scorer,
// and exposes the loop on GET /v1/lifecycle and /readyz.

import (
	"net/http"
	"path/filepath"
	"strconv"

	"fsml/internal/lifecycle"
	"fsml/internal/machine"
	"fsml/internal/pmu"
)

// mLifecycleFallback counts default-detector requests that could not be
// served by the active version (its key failed to resolve) and fell
// back to the configured default. Nonzero means the pointer references
// a model the registry cannot load — worth an operator's look.
const mLifecycleFallback = "fsml_lifecycle_active_fallback_total"

// initLifecycle builds the manager from cfg.Lifecycle, filling the
// server-owned fields the embedder left zero. A manager that cannot be
// built disables the loop but never the server: the error is kept and
// surfaced on /v1/lifecycle.
func (s *Server) initLifecycle() {
	lcfg := *s.cfg.Lifecycle
	if lcfg.Name == "" {
		lcfg.Name = "default"
	}
	lcfg.Registry = s.reg
	if lcfg.Counters == nil {
		lcfg.Counters = s.metrics
	}
	if lcfg.HistoryDir == "" && s.cfg.RegistryDir != "" {
		lcfg.HistoryDir = filepath.Join(s.cfg.RegistryDir, "history")
	}
	if lcfg.Parallelism == 0 {
		lcfg.Parallelism = s.cfg.Parallelism
	}
	// Seed the active pointer so the loop always has an incumbent with
	// a registry key: version 1 is the configured default detector. A
	// pointer warm-started from disk (a previous promotion) wins.
	if _, _, _, ok := s.reg.Active(lcfg.Name); !ok {
		if err := s.reg.SetActive(lcfg.Name, s.cfg.DefaultDetector, "", 1); err != nil {
			s.lcErr = err
			return
		}
	}
	m, err := lifecycle.New(lcfg)
	if err != nil {
		s.lcErr = err
		return
	}
	s.lc = m
}

// Lifecycle exposes the manager (nil when the loop is disabled).
func (s *Server) Lifecycle() *lifecycle.Manager { return s.lc }

// mirror forwards one authoritative verdict to the shadow scorer. A
// disabled or idle loop costs one nil check / one atomic load on the
// classify hot path.
func (s *Server) mirror(key, class string, confidence float64, sample pmu.Sample, kernels []machine.Kernel) {
	if s.lc != nil {
		s.lc.Mirror(key, class, confidence, sample, kernels)
	}
}

// activeDetectorKey resolves the default-detector key through the
// lifecycle's active-version pointer when the loop is enabled.
func (s *Server) activeDetectorKey() string {
	if s.lc == nil {
		return s.cfg.DefaultDetector
	}
	if key, _, _, ok := s.reg.Active(s.lc.Name()); ok && key != "" {
		return key
	}
	return s.cfg.DefaultDetector
}

// handleLifecycle renders the loop's status and run history.
// ?limit=N bounds the history (default 16, 0 = all retained).
func (s *Server) handleLifecycle(w http.ResponseWriter, r *http.Request) {
	if s.lc == nil {
		resp := LifecycleResponse{Enabled: false}
		if s.lcErr != nil {
			resp.Error = s.lcErr.Error()
		}
		s.writeJSON(w, resp)
		return
	}
	limit := 16
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, badRequestf("lifecycle: bad limit %q", v))
			return
		}
		limit = n
	}
	st := s.lc.Status()
	s.writeJSON(w, LifecycleResponse{
		Enabled: true,
		Status:  &st,
		History: s.lc.History(limit),
	})
}
