package ingest

import (
	"errors"
	"strings"
	"testing"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
	"shredder/internal/obs"
	"shredder/internal/shardstore"
	"shredder/internal/workload"
)

// TestDeleteOverWire is the retention happy path: a v3 session expires
// one of two streams; the deleted name stops restoring, the retained
// one still restores byte-exactly, and re-backing-up the deleted data
// re-uploads the freed chunks.
func TestDeleteOverWire(t *testing.T) {
	srv, err := NewServer(testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	c := startSession(t, srv)
	spec := chunk.FastCDCSpec(4 << 10)
	if _, err := c.NegotiateDedup(spec); err != nil {
		t.Fatal(err)
	}
	im := workload.NewImage(91, 2<<20, 64<<10, 0.5)
	snap := im.Snapshot(92)
	mst, err := c.BackupDedupBytes("master", im.Master)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.BackupDedupBytes("snap", snap); err != nil {
		t.Fatal(err)
	}

	ds, err := c.Delete("master")
	if err != nil {
		t.Fatal(err)
	}
	if ds.ChunksReleased != mst.Chunks {
		t.Fatalf("released %d references for a %d-chunk stream", ds.ChunksReleased, mst.Chunks)
	}
	if ds.ChunksFreed == 0 || ds.BytesFreed == 0 {
		t.Fatalf("a 50%%-churn master freed nothing: %+v", ds)
	}
	if ds.ChunksFreed >= mst.Chunks {
		t.Fatalf("everything freed (%d of %d) despite the snapshot sharing chunks", ds.ChunksFreed, mst.Chunks)
	}

	if _, err := c.RestoreBytes("master"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restore of deleted stream = %v, want ErrNotFound", err)
	}
	if err := c.Verify("snap", snap); err != nil {
		t.Fatalf("retained stream after delete: %v", err)
	}

	// Re-push the deleted stream: the freed chunks cross the wire
	// again, the shared (still-referenced) ones are skipped.
	rst, err := c.BackupDedupBytes("master2", im.Master)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Wire.ChunksSent != ds.ChunksFreed {
		t.Fatalf("re-push uploaded %d bodies, want exactly the %d freed", rst.Wire.ChunksSent, ds.ChunksFreed)
	}
	if err := c.Verify("master2", im.Master); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteUnknownNameKeepsSession: deleting a name the server never
// saw is an application error, not a protocol violation — the session
// keeps working.
func TestDeleteUnknownNameKeepsSession(t *testing.T) {
	srv, err := NewServer(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	c := startSession(t, srv)
	if _, err := c.NegotiateDedup(chunk.FastCDCSpec(4 << 10)); err != nil {
		t.Fatal(err)
	}
	var nf *NotFoundError
	if _, err := c.Delete("ghost"); !errors.As(err, &nf) || nf.Op != "delete" || nf.Name != "ghost" {
		t.Fatalf("delete of unknown name = %v, want NotFoundError{Op: delete}", err)
	}
	if _, err := c.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatal("delete not-found does not match ErrNotFound")
	}
	data := workload.Random(3, 256<<10)
	if _, err := c.BackupDedupBytes("after", data); err != nil {
		t.Fatalf("session dead after benign delete error: %v", err)
	}
	if err := c.Verify("after", data); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteRequiresV3: the client refuses locally below v3, and a
// hand-rolled MsgDelete on a legacy session is a protocol violation
// the server answers with a typed error.
func TestDeleteRequiresV3(t *testing.T) {
	c := NewSession(deadConn{})
	if _, err := c.Delete("x"); !errors.Is(err, ErrDeleteUnsupported) {
		t.Fatalf("Delete without negotiation = %v, want ErrDeleteUnsupported", err)
	}
	srv, err := NewServer(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	c2 := startSession(t, srv)
	if _, err := c2.Negotiate(chunk.FastCDCSpec(4 << 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Delete("x"); !errors.Is(err, ErrDeleteUnsupported) {
		t.Fatalf("Delete on v2 session = %v, want ErrDeleteUnsupported", err)
	}

	conn, br, errc := rawSession(t, srv)
	if err := writeFrame(conn, MsgDelete, []byte("sneak")); err != nil {
		t.Fatal(err)
	}
	typ, reply, err := readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError || !strings.Contains(string(reply), "below protocol version 3") {
		t.Fatalf("reply %d %q", typ, reply)
	}
	conn.Close()
	var fe *UnexpectedFrameError
	if serr := <-errc; !errors.As(serr, &fe) {
		t.Fatalf("server error = %v, want UnexpectedFrameError", serr)
	}
}

// TestAbortedDedupStreamReleasesPins: a dedup stream that dies between
// its HasBatch pins and its Commit must give the pinned references
// back — otherwise every aborted backup pins its chunks against
// reclamation forever.
func TestAbortedDedupStreamReleasesPins(t *testing.T) {
	srv, err := NewServer(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	spec := chunk.FastCDCSpec(4 << 10)
	c := startSession(t, srv)
	if _, err := c.NegotiateDedup(spec); err != nil {
		t.Fatal(err)
	}
	img := workload.Random(77, 512<<10)
	if _, err := c.BackupDedupBytes("base", img); err != nil {
		t.Fatal(err)
	}
	eng, err := chunk.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	var hs []shardstore.Hash
	baseRC := make(map[shardstore.Hash]int64)
	for _, ck := range eng.Split(img) {
		h := dedup.Sum(img[ck.Offset:ck.End()])
		hs = append(hs, h)
		baseRC[h] = srv.Store().Refcount(h)
	}

	// A second stream pins everything, then its connection dies before
	// Commit.
	conn, br, errc := rawSession(t, srv)
	if err := writeFrame(conn, MsgHello, encodeHello(ProtocolVersion, spec)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(br, nil); err != nil || typ != MsgAccept {
		t.Fatalf("hello reply %d, %v", typ, err)
	}
	if err := writeFrame(conn, MsgBeginDedup, encodeBeginDedup(ProtocolVersion, "doomed", obs.SpanContext{}, false)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, MsgHasBatch, encodeHasBatch(hs)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(br, nil)
	if err != nil || typ != MsgNeedBatch {
		t.Fatalf("need reply %d, %v", typ, err)
	}
	if need, err := decodeNeedBatch(payload, len(hs)); err != nil || len(need) != 0 {
		t.Fatalf("fully-present batch still needs %v, %v", need, err)
	}
	// At this instant the pins are held.
	if rc := srv.Store().Refcount(hs[0]); rc != baseRC[hs[0]]+1 {
		t.Fatalf("refcount %d mid-stream, want %d", rc, baseRC[hs[0]]+1)
	}
	conn.Close() // die without Commit
	if serr := <-errc; serr == nil {
		t.Fatal("server session ended cleanly despite dropped connection")
	}
	for i, h := range hs {
		if rc := srv.Store().Refcount(h); rc != baseRC[h] {
			t.Fatalf("chunk %d: refcount %d after abort, want %d back", i, rc, baseRC[h])
		}
	}
	// The release was real: deleting the only committed stream empties
	// the store.
	if _, err := c.Delete("base"); err != nil {
		t.Fatal(err)
	}
	if st := srv.Store().Stats(); st.UniqueChunks != 0 {
		t.Fatalf("store not empty after abort + delete: %+v", st)
	}
}

// TestDeleteResultCodecValidation exercises the decoder's rejection
// paths alongside a round-trip.
func TestDeleteResultCodecValidation(t *testing.T) {
	in := shardstore.DeleteStats{ChunksReleased: 12345, ChunksFreed: 17, BytesFreed: 1 << 40}
	ds, err := decodeDeleteResult(encodeDeleteResult(in))
	if err != nil || ds != in {
		t.Fatalf("round trip %+v, %v", ds, err)
	}
	if _, err := decodeDeleteResult(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := decodeDeleteResult([]byte{1, 2}); err == nil {
		t.Fatal("short payload accepted")
	}
	if _, err := decodeDeleteResult(append(encodeDeleteResult(in), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
