package persist

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// TestHeapPerUniqueChunk bounds the resident metadata a reopened
// durable store keeps per unique chunk: the shard index entry plus the
// backing's presence set and per-container accounting. It fills 16
// shards with 200k distinct 64-byte chunks, closes, and measures the
// heap a reopen adds. Not parallel: other tests' allocations would
// land in the measurement.
func TestHeapPerUniqueChunk(t *testing.T) {
	const (
		chunks   = 200_000
		batch    = 1000
		maxBytes = 180 // per unique chunk
	)
	dir := t.TempDir()
	opts := Options{Shards: 16, Fsync: FsyncPolicy{Mode: FsyncNever}}
	st := openStore(t, dir, opts)
	buf := make([][]byte, batch)
	for i := 0; i < chunks; i += batch {
		for j := range buf {
			c := make([]byte, 64)
			binary.LittleEndian.PutUint64(c, uint64(i+j))
			buf[j] = c
		}
		if _, _, err := st.PutBatch(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	buf = nil

	before := heapAlloc()
	st = openStore(t, dir, opts)
	after := heapAlloc()
	if got := st.Stats().UniqueChunks; got != chunks {
		t.Fatalf("reopened store holds %d unique chunks, want %d", got, chunks)
	}
	perChunk := float64(int64(after)-int64(before)) / chunks
	t.Logf("reopened store heap: %.1f B per unique chunk (%d chunks, 16 shards)", perChunk, chunks)
	if perChunk > maxBytes {
		t.Fatalf("reopened store holds %.1f B of heap per unique chunk, want <= %d", perChunk, maxBytes)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// heapAlloc reads the live heap after two collections, so garbage from
// earlier work (and objects freed by the first pass's finalizers) is
// gone.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
