package ingest

import (
	"io"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
	"shredder/internal/obs"
	"shredder/internal/shardstore"
)

// The exported wire surface: the frame and payload codecs a routing
// layer (internal/cluster) needs to serve the client-facing side of
// the protocol itself — accepting ordinary Session clients, splitting
// their streams by chunk ownership, and fanning the pieces out to
// owner nodes through this package's Session. Keeping the codecs here,
// as thin wrappers over the private implementations the Server and
// Session use, means there is exactly one definition of the wire
// format in the tree.

// WriteFrame emits one frame: a 1-byte type, a 4-byte big-endian
// payload length, then the payload (bounded by MaxFrame).
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	return writeFrame(w, typ, payload)
}

// ReadFrame reads one frame, reusing buf for the payload when it is
// large enough. The returned slice aliases buf (or a fresh allocation)
// and is valid until the next call with the same buf. A clean close on
// a frame boundary returns bare io.EOF; every other failure is typed.
func ReadFrame(r io.Reader, buf []byte) (byte, []byte, error) {
	return readFrame(r, buf)
}

// EncodeHello builds a MsgHello/MsgAccept payload (no trace context).
func EncodeHello(version byte, spec chunk.Spec) []byte {
	return encodeHello(version, spec)
}

// DecodeHello parses a MsgHello/MsgAccept payload: the proposed
// version, the (validated) chunking spec, and the sender's trace
// context on a traced v4 payload (zero otherwise).
func DecodeHello(p []byte) (byte, chunk.Spec, obs.SpanContext, error) {
	return decodeHello(p)
}

// DecodeBeginDedup parses a MsgBeginDedup payload for the session's
// negotiated version: the stream name, plus the client's trace context
// on a traced v4 payload. The routed mark, which only a router sets on
// its own sub-streams, is not reported.
func DecodeBeginDedup(version byte, p []byte) (string, obs.SpanContext, error) {
	name, ctx, _, err := decodeBeginDedup(version, p)
	return name, ctx, err
}

// DecodeHasBatchPayload parses a MsgHasBatch payload into its
// fingerprints.
func DecodeHasBatchPayload(p []byte) ([]dedup.Hash, error) {
	return decodeHasBatch(p)
}

// EncodeNeedBatch packs ascending missing-set indices into a
// MsgNeedBatch payload.
func EncodeNeedBatch(idxs []int) []byte {
	return encodeNeedBatch(idxs)
}

// EncodeStreamStats serializes a MsgStats payload in the layout the
// session's negotiated version expects (≥ 3 carries WireStats).
func EncodeStreamStats(st StreamStats, version byte) []byte {
	return st.encode(version)
}

// EncodeDeleteStats serializes a MsgDeleteOK payload.
func EncodeDeleteStats(ds shardstore.DeleteStats) []byte {
	return encodeDeleteResult(ds)
}
