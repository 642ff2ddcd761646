package ingest

import (
	"bytes"
	"net"
	"testing"

	"shredder/internal/obs"
	"shredder/internal/workload"
)

// testCtx is a fixed, valid trace context for wire tests.
func testCtx() obs.SpanContext {
	var ctx obs.SpanContext
	ctx.Trace[0], ctx.Trace[15] = 0xab, 0xcd
	ctx.Span[0], ctx.Span[7] = 0x12, 0x34
	return ctx
}

func TestHelloCtxRoundTrip(t *testing.T) {
	spec := DefaultConfig().Chunking
	ctx := testCtx()

	ver, got, gotCtx, err := decodeHello(encodeHelloCtx(ProtocolVersion, spec, ctx))
	if err != nil {
		t.Fatal(err)
	}
	if ver != ProtocolVersion || got != spec || gotCtx != ctx {
		t.Fatalf("round trip = v%d %+v %+v", ver, got, gotCtx)
	}

	// Untraced v4: no trailing field, zero context out.
	ver, got, gotCtx, err = decodeHello(encodeHelloCtx(ProtocolVersion, spec, obs.SpanContext{}))
	if err != nil {
		t.Fatal(err)
	}
	if ver != ProtocolVersion || got != spec || gotCtx.Valid() {
		t.Fatalf("untraced v4 round trip = v%d %+v %+v", ver, got, gotCtx)
	}
}

// TestLegacyHelloByteIdentity: pre-v4 payloads must not change when a
// trace context is offered — old servers parse them by exact layout.
func TestLegacyHelloByteIdentity(t *testing.T) {
	spec := DefaultConfig().Chunking
	ctx := testCtx()
	for _, ver := range []byte{2, 3} {
		plain := encodeHello(ver, spec)
		withCtx := encodeHelloCtx(ver, spec, ctx)
		if !bytes.Equal(plain, withCtx) {
			t.Errorf("v%d hello changed with a context: %x vs %x", ver, plain, withCtx)
		}
	}
	// Untraced v4 matches the v3 layout except the version byte.
	v4 := encodeHelloCtx(4, spec, obs.SpanContext{})
	v3 := encodeHello(3, spec)
	if !bytes.Equal(v4[1:], v3[1:]) {
		t.Errorf("untraced v4 hello body diverged from v3: %x vs %x", v4[1:], v3[1:])
	}
}

func TestBeginDedupCtxRoundTrip(t *testing.T) {
	ctx := testCtx()

	// v3: bare name both ways, neither context nor routed mark rides.
	if got := encodeBeginDedup(3, "snap", ctx, true); string(got) != "snap" {
		t.Errorf("v3 begin-dedup payload = %x, want bare name", got)
	}
	name, gotCtx, routed, err := decodeBeginDedup(3, []byte("snap"))
	if err != nil || name != "snap" || gotCtx.Valid() || routed {
		t.Fatalf("v3 decode = %q %+v %v %v", name, gotCtx, routed, err)
	}

	// v4: traced or not, routed or not.
	for _, tc := range []struct {
		ctx    obs.SpanContext
		routed bool
	}{{ctx, false}, {obs.SpanContext{}, false}, {ctx, true}, {obs.SpanContext{}, true}} {
		name, gotCtx, routed, err = decodeBeginDedup(4, encodeBeginDedup(4, "snap", tc.ctx, tc.routed))
		if err != nil || name != "snap" || gotCtx != tc.ctx || routed != tc.routed {
			t.Fatalf("v4 decode of %+v = %q %+v %v %v", tc, name, gotCtx, routed, err)
		}
	}

	// Malformed v4 payloads fail typed, not silently.
	if _, _, _, err := decodeBeginDedup(4, nil); err == nil {
		t.Error("empty v4 payload decoded")
	}
	if _, _, _, err := decodeBeginDedup(4, []byte{1, 0xab}); err == nil {
		t.Error("truncated trace context decoded")
	}
	if _, _, _, err := decodeBeginDedup(4, []byte{7, 'x'}); err == nil {
		t.Error("unknown flag decoded")
	}
}

// TestConnectedTrace is the tentpole acceptance check: with one tracer
// shared by client and server, a dedup backup produces a single trace
// whose server spans are remote-parented under the client's root.
func TestConnectedTrace(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{})
	cfg := testConfig(4)
	cfg.Tracer = tr
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cend, send := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer send.Close()
		_ = srv.ServeConn(send)
	}()
	c := NewClient(cend)
	c.SetTracer(tr)
	if _, err := c.NegotiateDedup(cfg.Chunking); err != nil {
		t.Fatal(err)
	}
	im := workload.NewImage(1, 1<<20, 32<<10, 0.1)
	if _, err := c.BackupDedupBytes("snap", im.Master); err != nil {
		t.Fatal(err)
	}
	c.Close()
	<-done // server spans must have ended before the snapshot

	var backup *obs.TraceData
	for _, td := range tr.Snapshot() {
		if td.Root == "backup_dedup" {
			backup = &td
			break
		}
	}
	if backup == nil {
		t.Fatal("no backup_dedup trace in snapshot")
	}
	var clientRoot, serverSpan *obs.SpanData
	names := map[string]int{}
	for i, s := range backup.Spans {
		names[s.Name]++
		if s.Name == "backup_dedup" {
			if s.Remote {
				serverSpan = &backup.Spans[i]
			} else if s.ParentID == "" {
				clientRoot = &backup.Spans[i]
			}
		}
	}
	if clientRoot == nil || serverSpan == nil {
		t.Fatalf("trace lacks client root or server span: %v", names)
	}
	if serverSpan.ParentID != clientRoot.SpanID {
		t.Errorf("server span parent %s, want client root %s", serverSpan.ParentID, clientRoot.SpanID)
	}
	// Both sides contribute their pipeline stages to the one tree.
	if names["has_batch"] < 2 {
		t.Errorf("has_batch on only one side: %v", names)
	}
	if names["commit"] < 2 {
		t.Errorf("commit on only one side: %v", names)
	}
	for _, want := range []string{"upload", "recv_bodies", "put_batch"} {
		if names[want] == 0 {
			t.Errorf("no %s span in the connected trace: %v", want, names)
		}
	}
}

// TestUntracedSessionNoSpans: a v4 session with no tracer must mint
// nothing — the nil hot path is the default deployment.
func TestUntracedSessionNoSpans(t *testing.T) {
	cfg := testConfig(2)
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := startSession(t, srv)
	if _, err := c.NegotiateDedup(cfg.Chunking); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BackupDedupBytes("snap", bytes.Repeat([]byte("shred"), 1<<16)); err != nil {
		t.Fatal(err)
	}
	var nilTracer *obs.Tracer
	if got := nilTracer.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
}
