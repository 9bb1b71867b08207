package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"

	"armus/internal/obs"
)

// The live-introspection surface: GET /debug/armus/sessions answers "what
// is this server doing right now, session by session" — the question the
// fleet and archive layers (PRs 8–9) made unanswerable from counters
// alone. Everything it reads is atomic (obs.SessionObs, deps.State.Len)
// or taken under the same short locks the janitor uses, so hitting it
// during an incident costs the hot path nothing.

// debugSession is one session's row in the /debug/armus/sessions reply.
type debugSession struct {
	Name string `json:"name"`
	Mode string `json:"mode"`
	// Conns is the attached connections; BlockedTasks the session's
	// current blocked-status count — the verifier's working-set size.
	Conns        int `json:"conns"`
	BlockedTasks int `json:"blocked_tasks"`

	Gates          int64 `json:"gates"`
	Rejections     int64 `json:"rejections"`
	Checkpoints    int64 `json:"checkpoints"`
	Reports        int64 `json:"reports"`
	LastDeadlocked bool  `json:"last_deadlocked"`

	// Stages' queue_wait is the session lock's contention.
	Stages obs.Stages `json:"stages"`

	// Flight is the session's flight ring (oldest first), only populated
	// when the request names this session with ?session=.
	Flight []obs.GateRecord `json:"flight,omitempty"`
}

// debugReply is the full /debug/armus/sessions document.
type debugReply struct {
	UptimeSeconds int64 `json:"uptime_seconds"`
	Draining      bool  `json:"draining"`
	// Stages is the server-wide stage breakdown (aggregated across all
	// sessions, surviving session GC) — same histograms /metrics exports.
	Stages   obs.Stages     `json:"stages"`
	Sessions []debugSession `json:"sessions"`
}

// registerDebug mounts /debug/armus/sessions and (behind cfg.Pprof) the
// net/http/pprof handlers on mux.
func (s *Server) registerDebug(mux *http.ServeMux) {
	mux.HandleFunc("/debug/armus/sessions", s.handleDebugSessions)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

func (s *Server) handleDebugSessions(w http.ResponseWriter, r *http.Request) {
	wantFlight := r.URL.Query().Get("session")
	reply := debugReply{
		UptimeSeconds: s.m.Uptime(),
		Stages:        obs.StagesOf(&s.m.StageQueueWait, &s.m.StageVerify, &s.m.StageFlush),
		Sessions:      []debugSession{},
	}
	s.mu.Lock()
	reply.Draining = s.draining || s.closed
	s.mu.Unlock()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for name, ss := range sh.m {
			row := debugSession{
				Name:           name,
				Mode:           ss.mode.String(),
				BlockedTasks:   ss.eng.State().Len(),
				Gates:          ss.ob.Gates.Load(),
				Rejections:     ss.ob.Rejections.Load(),
				Checkpoints:    ss.ob.Checkpoints.Load(),
				Reports:        ss.ob.Reports.Load(),
				LastDeadlocked: ss.ob.LastDeadlocked.Load(),
				Stages:         obs.StagesOf(&ss.ob.QueueWait, &ss.ob.Verify, &ss.ob.Flush),
			}
			ss.mu.Lock()
			row.Conns = len(ss.conns)
			ss.mu.Unlock()
			if name == wantFlight {
				row.Flight = ss.ob.Flight.Snapshot(nil)
			}
			reply.Sessions = append(reply.Sessions, row)
		}
		sh.mu.Unlock()
	}
	sort.Slice(reply.Sessions, func(i, j int) bool {
		return reply.Sessions[i].Name < reply.Sessions[j].Name
	})
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(reply)
}
