package server

import (
	"errors"
	"fmt"
	"net/http"

	"whatifolap/internal/scenario"
)

// Scenarios returns the server's scenario manager (tests and embedders).
func (s *Server) Scenarios() *scenario.Manager { return s.scenarios }

// scenarioCreateRequest is the POST /scenarios body.
type scenarioCreateRequest struct {
	// Name labels the workspace (default: its id).
	Name string `json:"name"`
	// Cube names the catalog cube to pin; may be omitted when the
	// catalog holds exactly one cube.
	Cube string `json:"cube"`
}

func (s *Server) handleScenarioCreate(w http.ResponseWriter, r *http.Request) {
	var req scenarioCreateRequest
	if !s.decodeBody(w, r, &req, false) {
		return
	}
	// The snapshot pins the current published version; the scenario
	// keeps the (immutable) cube value beyond the lease.
	snap, status, err := s.acquireCube(req.Cube)
	if err != nil {
		writeJSON(w, status, errorResponse{err.Error()})
		return
	}
	sc, err := s.scenarios.Create(req.Name, snap.Name, snap.Version, snap.Cube)
	snap.Release()
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{err.Error()})
		return
	}
	s.events.Log("scenario_create", map[string]string{
		"scenario":     sc.ID(),
		"cube":         sc.CubeName(),
		"base_version": fmt.Sprint(sc.BaseVersion()),
	})
	writeJSON(w, http.StatusCreated, sc.Info())
}

func (s *Server) handleScenarioList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Scenarios []scenario.Info `json:"scenarios"`
	}{s.scenarios.List()})
}

// scenarioEditRequest is the POST /scenarios/{id}/edit body: one
// atomic batch of edits.
type scenarioEditRequest struct {
	Edits []scenario.Edit `json:"edits"`
}

func (s *Server) handleScenarioEdit(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.scenarios.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown scenario " + r.PathValue("id")})
		return
	}
	var req scenarioEditRequest
	if !s.decodeBody(w, r, &req, false) {
		return
	}
	if _, err := sc.Apply(req.Edits); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{err.Error()})
		return
	}
	// The revision in the cache key already isolates the new state;
	// dropping the superseded entries reclaims their bytes eagerly.
	s.cache.InvalidateScenario(sc.ID())
	writeJSON(w, http.StatusOK, sc.Info())
}

// scenarioForkRequest is the POST /scenarios/{id}/fork body.
type scenarioForkRequest struct {
	Name string `json:"name"`
}

func (s *Server) handleScenarioFork(w http.ResponseWriter, r *http.Request) {
	var req scenarioForkRequest
	// An empty body means default naming.
	if !s.decodeBody(w, r, &req, true) {
		return
	}
	child, err := s.scenarios.Fork(r.PathValue("id"), req.Name)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, child.Info())
}

func (s *Server) handleScenarioQuery(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.scenarios.Get(r.PathValue("id"))
	if !ok {
		s.metrics.QueryErrors.Add(1)
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown scenario " + r.PathValue("id")})
		return
	}
	s.serveQuery(w, r, func(string) (queryTarget, int, error) {
		// The view is an immutable snapshot: later edits build new layers
		// and bump the revision, so both the evaluation and the cache
		// entry stay consistent even while the scenario is edited.
		view, rev, err := sc.View()
		if err != nil {
			return queryTarget{}, http.StatusUnprocessableEntity, err
		}
		info := sc.Info()
		return queryTarget{
			key: cacheKey{
				Cube: sc.CubeName(), Version: sc.BaseVersion(),
				Scenario: sc.ID(), ScenarioRev: rev,
			},
			cube: view, layers: info.Layers, overridden: info.CellsOverridden,
		}, 0, nil
	})
}

// scenarioDiffResponse is the GET /scenarios/{id}/diff body.
type scenarioDiffResponse struct {
	A     string              `json:"a"`
	B     string              `json:"b"`
	Count int                 `json:"count"`
	Cells []scenario.CellDiff `json:"cells"`
}

func (s *Server) handleScenarioDiff(w http.ResponseWriter, r *http.Request) {
	a, ok := s.scenarios.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown scenario " + r.PathValue("id")})
		return
	}
	against := r.URL.Query().Get("against")
	if against == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{"missing ?against={scenario id}"})
		return
	}
	b, ok := s.scenarios.Get(against)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown scenario " + against})
		return
	}
	cells, err := scenario.Diff(a, b)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{err.Error()})
		return
	}
	if cells == nil {
		cells = []scenario.CellDiff{}
	}
	writeJSON(w, http.StatusOK, scenarioDiffResponse{
		A: a.ID(), B: b.ID(), Count: len(cells), Cells: cells,
	})
}

// scenarioCommitResponse is the POST /scenarios/{id}/commit body.
type scenarioCommitResponse struct {
	Scenario string `json:"scenario"`
	Cube     string `json:"cube"`
	Version  int64  `json:"version"`
}

func (s *Server) handleScenarioCommit(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.scenarios.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown scenario " + r.PathValue("id")})
		return
	}
	next, err := sc.Materialize()
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{err.Error()})
		return
	}
	// Optimistic publish: refuse when the cube moved past the pinned
	// base version, so a stale scenario cannot clobber newer updates.
	v, err := s.catalog.Publish(sc.CubeName(), sc.BaseVersion(), next)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, ErrVersionConflict) {
			status = http.StatusConflict
			s.events.Log("scenario_conflict", map[string]string{
				"scenario":     sc.ID(),
				"cube":         sc.CubeName(),
				"base_version": fmt.Sprint(sc.BaseVersion()),
			})
		}
		writeJSON(w, status, errorResponse{err.Error()})
		return
	}
	sc.MarkCommitted(v)
	s.cache.InvalidateCube(sc.CubeName())
	s.cache.InvalidateScenario(sc.ID())
	s.events.Log("scenario_commit", map[string]string{
		"scenario": sc.ID(),
		"cube":     sc.CubeName(),
		"version":  fmt.Sprint(v),
	})
	writeJSON(w, http.StatusOK, scenarioCommitResponse{
		Scenario: sc.ID(), Cube: sc.CubeName(), Version: v,
	})
}

func (s *Server) handleScenarioDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.scenarios.Delete(id) {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown scenario " + id})
		return
	}
	s.cache.InvalidateScenario(id)
	s.metrics.ForgetScenario(id)
	s.events.Log("scenario_delete", map[string]string{"scenario": id})
	writeJSON(w, http.StatusOK, struct {
		Deleted string `json:"deleted"`
	}{id})
}
