package simserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"

	"nexsim/internal/experiments"
)

// The job API's wire format, in one place: simd serves it and the
// cluster router (internal/cluster) both serves and forwards it, so a
// routed response — result, status or error — is byte for byte what a
// direct one would be.

// SubmitRequest is the POST /jobs body.
type SubmitRequest struct {
	Specs []experiments.Spec `json:"specs"`
	// Wait blocks until every spec has a result (bounded by the
	// server's WaitTimeout) and returns results in spec order.
	Wait bool `json:"wait"`
}

// JobStatus is one entry of an async (or timed-out) submit response.
type JobStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

// ResultsResponse is the 200 body of a wait=true submit: canonical
// JobResult bytes in spec order.
type ResultsResponse struct {
	Results []json.RawMessage `json:"results"`
}

// JobsResponse is the 202 body of an async (or timed-out) submit.
type JobsResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// MaxBatch bounds specs per request; bigger sweeps should batch.
const MaxBatch = 4096

// DecodeSubmit reads and bounds a POST /jobs body: at most 1MB, no
// unknown fields, 1..MaxBatch specs. The error text is the 400 message.
func DecodeSubmit(w http.ResponseWriter, r *http.Request) (SubmitRequest, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("bad request body: %v", err)
	}
	if len(req.Specs) == 0 {
		return req, errors.New("no specs submitted")
	}
	if len(req.Specs) > MaxBatch {
		return req, fmt.Errorf("batch of %d specs exceeds the %d-spec limit", len(req.Specs), MaxBatch)
	}
	return req, nil
}

// RetryAfterSecs derives a deterministic 1–3s Retry-After from a
// refused spec's content address: a fleet of synchronized clients
// sweeping distinct specs spreads its retries instead of re-stampeding
// a recovering queue in unison, while any given spec (and so any given
// test) always sees the same value.
func RetryAfterSecs(id string) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id)) // fnv Write cannot fail
	return 1 + int(h.Sum64()%3)
}

// WriteJSON writes v as a JSON response body with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return
	}
}

// WriteError writes the API's error body, {"error": msg}, with status
// code.
func WriteError(w http.ResponseWriter, code int, msg string) {
	data, err := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	if err != nil {
		http.Error(w, msg, code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return
	}
}
