package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// handleEvents is GET /v1/experiments/{id}/events: a Server-Sent Events
// stream of runner.Snapshot progress documents. Each update arrives as an
// "event: progress" message whose data line is the Snapshot JSON; when the
// job reaches a terminal state the stream emits one "event: done" message
// carrying the final status document and closes. Subscribing to a job that
// already finished yields the done event immediately.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookupOrLoad(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such experiment")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ch, last := j.subscribe()
	defer j.unsubscribe(ch)

	// Late subscribers immediately see the most recent snapshot, so a
	// stream attached mid-run never starts silent.
	if last.Total > 0 {
		writeSSE(w, "progress", last)
		flusher.Flush()
	}

	for {
		select {
		case snap := <-ch:
			last = snap
			writeSSE(w, "progress", snap)
			flusher.Flush()
		case <-j.done:
			// The stream's last progress event is the final count, even
			// when a slow reader missed the snapshot that carried it
			// (publish drops rather than blocks).
			if final := j.progress(); final.Total > 0 && final != last {
				writeSSE(w, "progress", final)
			}
			writeSSE(w, "done", j.status(false))
			flusher.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE writes one SSE message with the given event name and a JSON
// data payload.
func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}
