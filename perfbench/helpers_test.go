package main

import (
	"net"
	"testing"

	"shredder/internal/ingest"
)

// pipeSession connects a session to srv over an in-memory pipe.
func pipeSession(t *testing.T, srv *ingest.Server) *ingest.Session {
	t.Helper()
	c, s := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.ServeConn(s)
		_ = s.Close()
	}()
	t.Cleanup(func() {
		_ = c.Close()
		<-done
	})
	return ingest.NewSession(c)
}

// dedupSession returns a session negotiated onto the dedup wire.
func dedupSession(t *testing.T, srv *ingest.Server) *ingest.Session {
	t.Helper()
	s := pipeSession(t, srv)
	if _, err := s.NegotiateDedup(chunkSpec); err != nil {
		t.Fatal(err)
	}
	return s
}

func memServer(t *testing.T) *ingest.Server {
	t.Helper()
	srv, err := ingest.NewServer(ingest.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return srv
}
