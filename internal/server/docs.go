package server

// This file is the document lifecycle over HTTP: PUT loads or replaces
// a document (XML body, or a server-side .dixq/.xml file), POST applies
// a structural subtree update addressed by child ordinals, DELETE drops
// the document. Every write publishes a new catalog snapshot version;
// queries admitted before the write keep answering from their pinned
// snapshot.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"dixq"
	"dixq/internal/obs"
)

// docBodyLimit bounds the XML body of PUT /docs/{name}.
const docBodyLimit = 64 << 20

// updateBodyLimit bounds the JSON body of POST /docs/{name}.
const updateBodyLimit = 8 << 20

// DocsResponse is the GET /docs body: the current catalog version and
// the documents it holds.
type DocsResponse struct {
	Version uint64    `json:"version"`
	Docs    []DocInfo `json:"docs"`
}

// DocResponse is the success body of the document lifecycle endpoints.
type DocResponse struct {
	Name string `json:"name"`
	// Nodes is the document's node count after the operation (absent for
	// DELETE).
	Nodes int `json:"nodes,omitempty"`
	// Version is the catalog version the operation published.
	Version uint64 `json:"version"`
	// Created distinguishes a PUT that loaded a new document from one
	// that replaced an existing one.
	Created bool `json:"created,omitempty"`
}

// UpdateRequest is the POST /docs/{name} body: a structural update.
type UpdateRequest struct {
	// Op is one of "insert-after", "insert-before", "append-child",
	// "prepend-child", "delete".
	Op string `json:"op"`
	// Path addresses the target node by child ordinals: path[0] selects
	// among the document's top-level trees, each further ordinal among
	// the children of the node selected so far ([0] is the root element,
	// [0, 2] its third child).
	Path []int `json:"path"`
	// XML is the inserted fragment (forbidden for "delete").
	XML string `json:"xml,omitempty"`
}

// docTrace records a sampled lifecycle operation into the trace ring
// buffer (Engine "catalog"), alongside the query traces.
func (s *Server) docTrace(op, name string, start time.Time, outcome string, attrs map[string]string) {
	tr := obs.Trace{
		StartUnixNS: start.UnixNano(),
		DurationNS:  int64(time.Since(start)),
		Engine:      "catalog",
		Outcome:     outcome,
		Query:       op + " " + name,
		Spans:       []obs.Span{{Name: op, DurationNS: int64(time.Since(start)), Attrs: attrs}},
	}
	s.traces.Add(tr)
	obs.TracesSampled.Inc()
}

func (s *Server) handleDocs(w http.ResponseWriter, r *http.Request) {
	snap := s.cat.Snapshot()
	out := DocsResponse{Version: snap.Version(), Docs: []DocInfo{}}
	for _, name := range snap.Documents() {
		d, _ := snap.Document(name)
		out.Docs = append(out.Docs, DocInfo{Name: name, Nodes: d.Nodes(), Depth: d.Depth()})
	}
	writeJSON(w, http.StatusOK, out)
}

// DocGetResponse is the GET /docs/{name} body.
type DocGetResponse struct {
	DocInfo
	Trees   int    `json:"trees"`
	Version uint64 `json:"version"`
}

func (s *Server) handleDocGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	snap := s.cat.Snapshot()
	d, ok := snap.Document(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no such document: " + name})
		return
	}
	writeJSON(w, http.StatusOK, DocGetResponse{
		DocInfo: DocInfo{Name: name, Nodes: d.Nodes(), Depth: d.Depth()},
		Trees:   d.Trees(),
		Version: snap.Version(),
	})
}

func (s *Server) handleDocPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	start := time.Now()
	var doc *dixq.Document
	if file := r.URL.Query().Get("file"); file != "" {
		if s.cfg.DocDir == "" {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: "server-side file loading is disabled (no document directory configured)"})
			return
		}
		clean := filepath.Clean(file)
		if filepath.IsAbs(clean) || clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: "file path escapes the document directory: " + file})
			return
		}
		d, err := dixq.LoadDocumentFile(filepath.Join(s.cfg.DocDir, clean))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		doc = d
	} else {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, docBodyLimit))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "read body: " + err.Error()})
			return
		}
		if len(data) == 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty document body (XML expected)"})
			return
		}
		d, err := dixq.ParseDocument(string(data))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		doc = d
	}
	_, existed := s.cat.Snapshot().Document(name)
	version := s.cat.Add(name, doc)
	obs.DocUpdates.With("put").Inc()
	if s.sampler.Sample() {
		s.docTrace("load-document", name, start, "ok", map[string]string{
			"nodes":   fmt.Sprint(doc.Nodes()),
			"version": fmt.Sprint(version),
		})
	}
	status := http.StatusOK
	if !existed {
		status = http.StatusCreated
	}
	writeJSON(w, status, DocResponse{Name: name, Nodes: doc.Nodes(), Version: version, Created: !existed})
}

func (s *Server) handleDocUpdate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	start := time.Now()
	var req UpdateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, updateBodyLimit))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	op := dixq.UpdateOp(req.Op)
	switch op {
	case dixq.OpDelete, dixq.OpInsertAfter, dixq.OpInsertBefore, dixq.OpAppendChild, dixq.OpPrependChild:
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("unknown op %q (insert-after, insert-before, append-child, prepend-child, delete)", req.Op)})
		return
	}
	var frag *dixq.Document
	if op != dixq.OpDelete {
		if req.XML == "" {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "op " + req.Op + " requires an xml fragment"})
			return
		}
		d, err := dixq.ParseDocument(req.XML)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad xml fragment: " + err.Error()})
			return
		}
		frag = d
	}
	version, err := s.cat.Update(name, op, req.Path, frag)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, dixq.ErrNoDocument) {
			status = http.StatusNotFound
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	obs.DocUpdates.With("update").Inc()
	if s.sampler.Sample() {
		s.docTrace("update-document", name, start, "ok", map[string]string{
			"op":      req.Op,
			"path":    fmt.Sprint(req.Path),
			"version": fmt.Sprint(version),
		})
	}
	nodes := 0
	if d, ok := s.cat.Snapshot().Document(name); ok {
		nodes = d.Nodes()
	}
	writeJSON(w, http.StatusOK, DocResponse{Name: name, Nodes: nodes, Version: version})
}

func (s *Server) handleDocDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	start := time.Now()
	version, ok := s.cat.Drop(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no such document: " + name})
		return
	}
	obs.DocUpdates.With("drop").Inc()
	if s.sampler.Sample() {
		s.docTrace("drop-document", name, start, "ok", map[string]string{
			"version": fmt.Sprint(version),
		})
	}
	writeJSON(w, http.StatusOK, DocResponse{Name: name, Version: version})
}
