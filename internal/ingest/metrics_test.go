package ingest

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"shredder/internal/obs"
	"shredder/internal/workload"
)

// metricValue extracts one sample from a Prometheus text exposition.
// metric may carry labels, e.g. `ingest_sessions_total{protocol="3"}`.
func metricValue(t *testing.T, body, metric string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok && name == metric {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q: %v", metric, val, err)
			}
			return f
		}
	}
	t.Fatalf("metric %s not found in scrape:\n%s", metric, body)
	return 0
}

// TestMetricsScrapeUnderConcurrentDedupSessions runs four concurrent
// dedup-wire clients against an instrumented server while /metrics is
// scraped continuously (the -race interleaving this file exists for),
// then asserts the final scrape is internally consistent: the
// logical-bytes counter equals the sum of the per-stream stats the
// clients were acked with, the active-session gauge is back to zero
// after the drain, and the session/frame counters match the traffic.
func TestMetricsScrapeUnderConcurrentDedupSessions(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.Obs = reg
	// Exercise the per-session logging path under race too.
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug}))
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	web := httptest.NewServer(obs.NewAdmin(reg, nil))
	defer web.Close()

	stopScrape := make(chan struct{})
	scrapeErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stopScrape:
				scrapeErr <- nil
				return
			default:
			}
			resp, err := http.Get(web.URL + "/metrics")
			if err != nil {
				scrapeErr <- err
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	const sessions = 4
	const streamsPer = 3
	var mu sync.Mutex
	var wantLogical int64
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(l.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if _, err := c.NegotiateDedup(DefaultConfig().Chunking); err != nil {
				t.Error(err)
				return
			}
			// The same image per client: later streams dedup against
			// earlier ones, exercising pins and skipped bodies.
			data := workload.Random(int64(i), 512<<10)
			for s := 0; s < streamsPer; s++ {
				st, err := c.BackupDedupBytes(fmt.Sprintf("c%d-s%d", i, s), data)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				wantLogical += st.Bytes
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	close(stopScrape)
	if err := <-scrapeErr; err != nil {
		t.Fatalf("concurrent scrape: %v", err)
	}

	l.Close()
	if err := <-serveErr; err == nil {
		t.Fatal("Serve returned nil after listener close")
	}
	srv.Shutdown(5 * time.Second)

	resp, err := http.Get(web.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body := string(raw)

	if got := metricValue(t, body, "ingest_logical_bytes_total"); got != float64(wantLogical) {
		t.Errorf("ingest_logical_bytes_total = %v, want %d (sum of acked per-stream bytes)", got, wantLogical)
	}
	if got := metricValue(t, body, "ingest_sessions_active"); got != 0 {
		t.Errorf("ingest_sessions_active = %v after drain, want 0", got)
	}
	if got := metricValue(t, body, `ingest_sessions_total{protocol="4"}`); got != sessions {
		t.Errorf(`ingest_sessions_total{protocol="4"} = %v, want %d`, got, sessions)
	}
	if got := metricValue(t, body, `ingest_frames_total{type="commit"}`); got != sessions*streamsPer {
		t.Errorf(`ingest_frames_total{type="commit"} = %v, want %d`, got, sessions*streamsPer)
	}
	if got := metricValue(t, body, "ingest_chunks_skipped_total"); got == 0 {
		t.Error("ingest_chunks_skipped_total = 0, want > 0 (repeat streams dedup)")
	}
	sent := metricValue(t, body, "ingest_chunks_sent_total")
	skipped := metricValue(t, body, "ingest_chunks_skipped_total")
	if sent+skipped == 0 {
		t.Error("no chunks accounted at all")
	}
	// The store-layer families must be present on the same registry.
	if got := metricValue(t, body, "shardstore_logical_bytes"); got != float64(wantLogical) {
		t.Errorf("shardstore_logical_bytes = %v, want %d", got, wantLogical)
	}
}

// TestProtocolErrorMetric asserts a session that dies on a protocol
// violation is classified into the typed error-kind counter.
func TestProtocolErrorMetric(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.Obs = reg
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cend, send := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(send) }()
	// A BeginDedup on a never-negotiated (legacy) session is an
	// UnexpectedFrameError.
	if err := writeFrame(cend, MsgBeginDedup, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Drain the server's Error frame so its flush over the pipe can
	// complete and the session can die.
	go func() { _, _ = io.Copy(io.Discard, cend) }()
	if err := <-done; err == nil {
		t.Fatal("session survived BeginDedup without negotiation")
	}
	cend.Close()
	send.Close()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	if got := metricValue(t, body, `ingest_protocol_errors_total{kind="unexpected_frame"}`); got != 1 {
		t.Errorf(`ingest_protocol_errors_total{kind="unexpected_frame"} = %v, want 1`, got)
	}
	if got := metricValue(t, body, "ingest_sessions_active"); got != 0 {
		t.Errorf("ingest_sessions_active = %v, want 0", got)
	}
}
