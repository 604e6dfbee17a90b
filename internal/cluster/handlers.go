package cluster

// The /v1/cluster endpoints, answered by the cluster tier itself (they
// never forward) in the standard /v1 envelope:
//
//	GET  /v1/cluster          full membership view from this node
//	GET  /v1/cluster/node     this node's self-reported status (the
//	                          membership poll target)
//	POST /v1/cluster/drain    start draining this node (idempotent);
//	                          202 with the drain accepted, groups move
//	                          in the background
//	POST /v1/cluster/migrate  install a batch of exported groups (the
//	                          receiving half of drain/rebalance)

import (
	"encoding/json"
	"fmt"
	"net/http"

	"brsmn/internal/api"
	"brsmn/internal/store"
)

func (n *Node) serveCluster(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(HeaderNode, n.cfg.Self)
	switch r.URL.Path {
	case "/v1/cluster":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, "GET")
			return
		}
		api.WriteData(w, http.StatusOK, n.status())
	case "/v1/cluster/node":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, "GET")
			return
		}
		api.WriteData(w, http.StatusOK, n.selfStatus())
	case "/v1/cluster/drain":
		if r.Method != http.MethodPost {
			methodNotAllowed(w, "POST")
			return
		}
		n.handleDrain(w, r)
	case "/v1/cluster/migrate":
		if r.Method != http.MethodPost {
			methodNotAllowed(w, "POST")
			return
		}
		n.handleMigrate(w, r)
	default:
		api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no such cluster endpoint")
	}
}

func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "method not allowed")
}

// DrainResponse is the POST /v1/cluster/drain reply.
type DrainResponse struct {
	Draining bool `json:"draining"`
	// Groups is how many groups this node still held when the drain was
	// accepted.
	Groups int `json:"groups"`
}

func (n *Node) handleDrain(w http.ResponseWriter, r *http.Request) {
	if n.closed.Load() {
		api.WriteError(w, http.StatusServiceUnavailable, api.CodeUnavailable, ErrClosed.Error())
		return
	}
	n.Drain()
	api.WriteData(w, http.StatusAccepted, DrainResponse{Draining: true, Groups: n.cfg.Local.Count()})
}

// MigrateItem is one group in a migration batch: its snapshot state
// plus (optionally) the warm current-generation plan so the gaining
// node's first plan request is a cache hit on byte-identical bytes.
type MigrateItem struct {
	Group store.GroupState `json:"group"`
	Plan  *store.PlanState `json:"plan,omitempty"`
}

// MigrateRequest is the POST /v1/cluster/migrate body.
type MigrateRequest struct {
	// From names the sending node (logging/metrics only).
	From  string        `json:"from"`
	Items []MigrateItem `json:"items"`
}

// MigrateResponse reports per-batch install results.
type MigrateResponse struct {
	Installed int `json:"installed"`
	// Rejected counts items the local backend refused (e.g. a stale
	// generation losing to a newer local copy — not an error, the newer
	// state simply wins).
	Rejected int `json:"rejected"`
}

func (n *Node) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req MigrateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "decoding migrate batch: "+err.Error())
		return
	}
	var resp MigrateResponse
	for _, it := range req.Items {
		if it.Group.ID == "" {
			api.WriteError(w, http.StatusUnprocessableEntity, api.CodeInvalidArgument, "migrate item with empty group ID")
			return
		}
		if err := n.cfg.Local.Install(it.Group, it.Plan); err != nil {
			api.WriteError(w, http.StatusInternalServerError, api.CodeInternal,
				fmt.Sprintf("installing group %s: %v", it.Group.ID, err))
			return
		}
		resp.Installed++
	}
	n.nMigratedIn.Add(uint64(resp.Installed))
	if resp.Installed > 0 {
		n.logf("cluster: installed %d groups from %s", resp.Installed, req.From)
	}
	api.WriteData(w, http.StatusOK, resp)
}
