package ingest

import (
	"bytes"
	"testing"

	"shredder/internal/chunk"
	"shredder/internal/obs"
)

// fuzzCtx is a valid trace context for seeding traced layouts.
var fuzzCtx = obs.SpanContext{
	Trace: obs.TraceID{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
	Span:  obs.SpanID{0xca, 0xfe, 1, 2, 3, 4, 5, 6},
}

// helloSeedCorpus seeds the hello codec fuzzer: plain v2/v3 payloads,
// v4 payloads with and without a trace context, and truncations.
func helloSeedCorpus() [][]byte {
	spec := chunk.DefaultSpec()
	return [][]byte{
		nil,
		{},
		{3},
		encodeHello(2, spec),
		encodeHello(ProtocolVersion, spec),
		encodeHelloCtx(ProtocolVersion, spec, fuzzCtx),
		encodeHello(ProtocolVersion, spec)[:10],
		append(encodeHello(ProtocolVersion, spec), 0xff),
	}
}

// FuzzHelloCodec: decodeHello must never panic, and whatever it
// accepts must survive a re-encode/re-decode round trip unchanged —
// the negotiated version, spec, and trace context are what the whole
// session keys off.
func FuzzHelloCodec(f *testing.F) {
	for _, seed := range helloSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		version, spec, ctx, err := decodeHello(in)
		if err != nil {
			return
		}
		out := encodeHelloCtx(version, spec, ctx)
		v2, spec2, ctx2, err := decodeHello(out)
		if err != nil {
			t.Fatalf("re-encoded hello rejected: %v", err)
		}
		if v2 != version || spec2 != spec || ctx2 != ctx {
			t.Fatalf("hello round trip drifted: (%d %+v %+v) -> (%d %+v %+v)",
				version, spec, ctx, v2, spec2, ctx2)
		}
	})
}

// FuzzBeginDedupCodec: decodeBeginDedup must never panic for any
// negotiated version and payload, and accepted payloads must round
// trip: the stream name, trace context and routed mark survive
// re-encoding under the same version.
func FuzzBeginDedupCodec(f *testing.F) {
	f.Add(byte(2), []byte("backup-2026-08"))
	f.Add(byte(4), encodeBeginDedup(4, "snap", obs.SpanContext{}, false))
	f.Add(byte(4), encodeBeginDedup(4, "snap", fuzzCtx, true))
	f.Add(byte(4), []byte{1, 0, 0})
	f.Add(byte(4), []byte{2, 'x'})
	f.Fuzz(func(t *testing.T, version byte, in []byte) {
		name, ctx, routed, err := decodeBeginDedup(version, in)
		if err != nil {
			return
		}
		name2, ctx2, routed2, err := decodeBeginDedup(version, encodeBeginDedup(version, name, ctx, routed))
		if err != nil {
			t.Fatalf("re-encoded begin-dedup rejected: %v", err)
		}
		if name2 != name || ctx2 != ctx || routed2 != routed {
			t.Fatalf("begin-dedup round trip drifted: (%q %+v %v) -> (%q %+v %v)",
				name, ctx, routed, name2, ctx2, routed2)
		}
	})
}

// FuzzStatsCodec: decodeStreamStats must reject every length other
// than the two fixed layouts and must round-trip accepted payloads
// byte-identically — the framing is canonical big-endian int64s.
func FuzzStatsCodec(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(make([]byte, statsWireSize))
	f.Add(make([]byte, statsWireSizeV3))
	f.Add(make([]byte, statsWireSize-1))
	f.Add(bytes.Repeat([]byte{0xa5}, statsWireSizeV3))
	f.Fuzz(func(t *testing.T, in []byte) {
		st, err := decodeStreamStats(in)
		if len(in) != statsWireSize && len(in) != statsWireSizeV3 {
			if err == nil {
				t.Fatalf("%d-byte stats payload accepted", len(in))
			}
			return
		}
		if err != nil {
			t.Fatalf("%d-byte stats payload rejected: %v", len(in), err)
		}
		version := byte(2)
		if len(in) == statsWireSizeV3 {
			version = 3
		}
		if out := st.encode(version); !bytes.Equal(out, in) {
			t.Fatalf("re-encoding differs:\nin  %x\nout %x", in, out)
		}
	})
}
