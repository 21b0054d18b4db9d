package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// A proxy in front of the daemon answers in plain text, not the api.Error
// envelope: the error keeps the body as its message, derives its code
// from the status, and still carries the Retry-After hint.
func TestPlainTextErrorFromProxy(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusBadGateway)
		w.Write([]byte("upstream connect error\n"))
	}))
	defer srv.Close()

	err := New(srv.URL).Health(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("Health = %v, want an *APIError", err)
	}
	want := APIError{StatusCode: 502, Code: CodeUnavailable, Message: "upstream connect error", RetryAfter: 7 * time.Second}
	if *ae != want {
		t.Errorf("error = %+v, want %+v", *ae, want)
	}
}
