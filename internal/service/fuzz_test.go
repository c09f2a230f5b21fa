package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzSubmitJob drives POST /v1/jobs, the daemon's trust boundary, with
// arbitrary request bodies. Every body must get a well-formed answer: 200
// or 202 with a body that decodes as a JobStatus, 400, or 503 — never a
// panic or a 500. No pipeline runs: the single worker parks each accepted
// job on its 1 ms deadline.
func FuzzSubmitJob(f *testing.F) {
	for _, req := range []JobRequest{
		{Netlist: tinyBench, Name: "tiny"},
		{Netlist: tinyBench, Edits: "resize g1 2"},
		{BaseJob: "j000001"},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"netlist": `))
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := New(context.Background(), Config{Workers: 1, JobTimeout: time.Millisecond})
		srv.preRun = func(ctx context.Context, _ *job) { <-ctx.Done() }
		defer srv.Shutdown(context.Background())
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted:
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("HTTP %d body does not decode as a JobStatus: %v\n%s", rec.Code, err, rec.Body)
			}
		case http.StatusBadRequest, http.StatusServiceUnavailable:
		default:
			t.Fatalf("HTTP %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
