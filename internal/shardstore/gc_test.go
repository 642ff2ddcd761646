package shardstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"shredder/internal/dedup"
)

// splitStream cuts a byte stream into fixed test chunks (content-
// defined boundaries are irrelevant to GC semantics).
func splitStream(data []byte, size int) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		n := size
		if n > len(data) {
			n = len(data)
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

// ingestNamed writes chunks as a named stream and returns its recipe.
func ingestNamed(t *testing.T, s *Store, name string, chunks [][]byte) Recipe {
	t.Helper()
	r, _, err := s.WriteStream(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CommitRecipe(name, r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDeleteRecipeReleasesRefcounts: deleting a recipe decrements one
// reference per entry; chunks reaching zero leave the index, Missing
// and the presence set, while shared chunks survive with exact counts.
func TestDeleteRecipeReleasesRefcounts(t *testing.T) {
	s, err := New(4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	shared := []byte("shared-chunk-body-used-by-both-streams")
	onlyA := []byte("chunk-only-stream-a-references")
	onlyB := []byte("chunk-only-stream-b-references")
	ingestNamed(t, s, "a", [][]byte{shared, onlyA, shared})
	ingestNamed(t, s, "b", [][]byte{onlyB, shared})

	if rc := s.Refcount(dedup.Sum(shared)); rc != 3 {
		t.Fatalf("shared refcount %d, want 3", rc)
	}
	ds, err := s.DeleteRecipe("a")
	if err != nil {
		t.Fatal(err)
	}
	if ds.ChunksReleased != 3 || ds.ChunksFreed != 1 || ds.BytesFreed != int64(len(onlyA)) {
		t.Fatalf("delete stats %+v", ds)
	}
	if rc := s.Refcount(dedup.Sum(shared)); rc != 1 {
		t.Fatalf("shared refcount after delete %d, want 1", rc)
	}
	if _, ok := s.Has(dedup.Sum(onlyA)); ok {
		t.Fatal("a-only chunk survived the delete")
	}
	if _, ok := s.Has(dedup.Sum(onlyB)); !ok {
		t.Fatal("b-only chunk lost")
	}
	if _, ok := s.Recipe("a"); ok {
		t.Fatal("recipe a still recorded")
	}
	// Missing reflects the drop: the freed hash is missing again.
	hs := []Hash{dedup.Sum(shared), dedup.Sum(onlyA), dedup.Sum(onlyB)}
	if got := fmt.Sprint(s.Missing(hs)); got != "[1]" {
		t.Fatalf("Missing = %v, want [1]", got)
	}
	// Stream b still reconstructs byte-exactly.
	rb, _ := s.Recipe("b")
	data, err := s.Reconstruct(rb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, append(append([]byte(nil), onlyB...), shared...)) {
		t.Fatal("stream b reconstruction differs after deleting a")
	}
	// Deleting b empties the store.
	if _, err := s.DeleteRecipe("b"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st != (dedup.Stats{}) {
		t.Fatalf("store not empty after deleting everything: %+v", st)
	}
}

// TestRecommitReleasesReplacedRecipe: re-committing a stream under a
// fixed name (the nightly-backup pattern) must release the replaced
// recipe's references — otherwise every replacement pins its chunks
// forever and the store still only grows. The resulting stats match a
// store that only ever saw the final generation.
func TestRecommitReleasesReplacedRecipe(t *testing.T) {
	gen1 := splitStream(bytes.Repeat([]byte("night-one-content!!!"), 400), 300)
	gen2 := splitStream(bytes.Repeat([]byte("night-TWO-content!!!"), 400), 300)

	s, err := New(4, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	ingestNamed(t, s, "vm", gen1)
	ingestNamed(t, s, "vm", gen2) // replaces, releasing gen1's refs

	fresh, err := New(4, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	ingestNamed(t, fresh, "vm", gen2)
	if got, want := s.Stats(), fresh.Stats(); got != want {
		t.Fatalf("stats after replacement %+v, fresh-store stats %+v", got, want)
	}
	if _, ok := s.Has(dedup.Sum(gen1[0])); ok {
		t.Fatal("replaced recipe's chunk still pinned")
	}
	r, _ := s.Recipe("vm")
	data, err := s.Reconstruct(r)
	if err != nil || !bytes.Equal(data, bytes.Join(gen2, nil)) {
		t.Fatalf("replacement recipe broken: %v", err)
	}
}

// TestDeleteUnknownRecipe: the error is typed and nothing changes.
func TestDeleteUnknownRecipe(t *testing.T) {
	s, err := New(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteRecipe("ghost"); !errors.Is(err, ErrUnknownRecipe) {
		t.Fatalf("DeleteRecipe(ghost) = %v, want ErrUnknownRecipe", err)
	}
}

// TestStatsAfterDeleteMatchFresh is the differential form of the
// accounting guarantee: ingesting X and Y then deleting Y must leave
// exactly the Stats of a fresh store that only ever saw X.
func TestStatsAfterDeleteMatchFresh(t *testing.T) {
	x := splitStream(bytes.Repeat([]byte("alpha-bravo-charlie-"), 500), 300)
	y := splitStream(bytes.Repeat([]byte("alpha-bravo-DELTA!!-"), 400), 300)

	both, err := New(8, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	ingestNamed(t, both, "x", x)
	ingestNamed(t, both, "y", y)
	if _, err := both.DeleteRecipe("y"); err != nil {
		t.Fatal(err)
	}

	fresh, err := New(8, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	ingestNamed(t, fresh, "x", x)

	if bs, fs := both.Stats(), fresh.Stats(); bs != fs {
		t.Fatalf("stats after delete %+v, fresh-store stats %+v", bs, fs)
	}
	for i, c := range x {
		if both.Refcount(dedup.Sum(c)) != fresh.Refcount(dedup.Sum(c)) {
			t.Fatalf("chunk %d refcount diverges", i)
		}
	}
}

// chunk256 builds a distinct 256-byte test chunk.
func chunk256(tag string, i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("%s%03d-", tag, i)), 32)
}

// TestCompactMemoryReclaims: after a delete leaves containers mostly
// dead, Compact re-packs the survivors, drops the victims, and every
// retained stream still reconstructs — with Stats untouched.
func TestCompactMemoryReclaims(t *testing.T) {
	s, err := New(1, 1<<10) // 1 KiB containers: 4 chunks each
	if err != nil {
		t.Fatal(err)
	}
	// Layout (single shard, insertion order): c0 = k0..k3 (fully live
	// later), c1 = d0 k4 d1 k5 and c2 = d2 d3 k6 k7 (half dead later),
	// c3 = f0 (open).
	var keepChunks, dropChunks [][]byte
	for i := 0; i < 8; i++ {
		keepChunks = append(keepChunks, chunk256("keep", i))
	}
	for i := 0; i < 4; i++ {
		dropChunks = append(dropChunks, chunk256("drop", i))
	}
	order := [][]byte{
		keepChunks[0], keepChunks[1], keepChunks[2], keepChunks[3],
		dropChunks[0], keepChunks[4], dropChunks[1], keepChunks[5],
		dropChunks[2], dropChunks[3], keepChunks[6], keepChunks[7],
		chunk256("fill", 0),
	}
	for _, c := range order {
		if _, _, err := s.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	var keep, drop, fill Recipe
	for _, c := range keepChunks {
		keep = append(keep, dedup.Sum(c))
	}
	for _, c := range dropChunks {
		drop = append(drop, dedup.Sum(c))
	}
	fill = Recipe{dedup.Sum(chunk256("fill", 0))}
	// k4 sits in a container compaction will empty; a second recipe
	// holds it too, so its entry moves with a count of 2.
	shared := keep[4]
	if _, _, err := s.Put(keepChunks[4]); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]Recipe{"keep": keep, "keep2": {shared}, "drop": drop, "fill": fill} {
		if err := s.CommitRecipe(name, r); err != nil {
			t.Fatal(err)
		}
	}
	keepData := bytes.Join(keepChunks, nil)
	containersBefore := s.Containers()

	if _, err := s.DeleteRecipe("drop"); err != nil {
		t.Fatal(err)
	}
	statsBefore := s.Stats()
	sharedBefore, _ := s.Has(shared)
	cs, err := s.Compact(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Containers != 2 || cs.ReclaimedBytes != 1024 || cs.MovedBytes != 1024 {
		t.Fatalf("compaction stats %+v, want 2 containers / 1024 reclaimed / 1024 moved", cs)
	}
	if s.Stats() != statsBefore {
		t.Fatalf("compaction changed stats: %+v != %+v", s.Stats(), statsBefore)
	}
	// Stats are atomics compaction never touches; the entries themselves
	// must keep their counts and live bytes across the move.
	if sharedAfter, _ := s.Has(shared); sharedAfter.Container == sharedBefore.Container {
		t.Fatalf("shared chunk was not relocated: %+v", sharedAfter)
	}
	if rc := s.Refcount(shared); rc != 2 {
		t.Fatalf("relocated shared chunk has refcount %d, want 2", rc)
	}
	_, liveBytes, _ := s.ContainerUsage()
	if want := int64(len(keepData) + len(chunk256("fill", 0))); liveBytes != want {
		t.Fatalf("live container bytes %d after compaction, want %d (kept chunks)", liveBytes, want)
	}
	// Container slots are stable (dropped ones keep their number; the
	// re-packed bytes may have rolled new slots at the end).
	if s.Containers() < containersBefore {
		t.Fatalf("container slots shrank: %d < %d", s.Containers(), containersBefore)
	}
	dropped := 0
	sh := s.shards[0]
	for ci := 0; ci < sh.back.Containers(); ci++ {
		if sh.back.ContainerLen(ci) < 0 {
			dropped++
		}
	}
	if dropped != cs.Containers {
		t.Fatalf("%d slots dropped, stats say %d", dropped, cs.Containers)
	}
	// The retained streams read back byte-exactly through the index.
	data, err := s.Reconstruct(keep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, keepData) {
		t.Fatal("retained stream corrupted by compaction")
	}
	if data, err := s.Reconstruct(fill); err != nil || !bytes.Equal(data, chunk256("fill", 0)) {
		t.Fatalf("fill stream corrupted by compaction: %v", err)
	}
	// A second pass finds nothing left to do.
	cs2, err := s.Compact(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if cs2.Containers != 0 {
		t.Fatalf("second compaction still found victims: %+v", cs2)
	}
	// The store keeps working after compaction.
	if _, _, err := s.Put([]byte("post-compaction chunk")); err != nil {
		t.Fatal(err)
	}
}

// TestCompactThresholdZero only reclaims fully-dead containers.
func TestCompactThresholdZero(t *testing.T) {
	s, err := New(1, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	// Two streams interleaved chunk by chunk: every container holds live
	// bytes from "keep", so threshold 0 must not touch any of them...
	var mixedKeep, mixedDrop [][]byte
	for i := 0; i < 8; i++ {
		mixedKeep = append(mixedKeep, bytes.Repeat([]byte(fmt.Sprintf("keep%02d-", i)), 36))
		mixedDrop = append(mixedDrop, bytes.Repeat([]byte(fmt.Sprintf("drop%02d-", i)), 36))
	}
	var keepRecipe, dropRecipe Recipe
	for i := range mixedKeep {
		if _, _, err := s.Put(mixedKeep[i]); err != nil {
			t.Fatal(err)
		}
		keepRecipe = append(keepRecipe, dedup.Sum(mixedKeep[i]))
		if _, _, err := s.Put(mixedDrop[i]); err != nil {
			t.Fatal(err)
		}
		dropRecipe = append(dropRecipe, dedup.Sum(mixedDrop[i]))
	}
	if err := s.CommitRecipe("keep", keepRecipe); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitRecipe("drop", dropRecipe); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteRecipe("drop"); err != nil {
		t.Fatal(err)
	}
	cs, err := s.Compact(0)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Containers != 0 {
		t.Fatalf("threshold 0 compacted half-live containers: %+v", cs)
	}
	// ...while a high threshold rewrites them all.
	cs, err = s.Compact(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Containers == 0 {
		t.Fatal("high threshold found no victims in half-dead containers")
	}
	data, err := s.Reconstruct(keepRecipe)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, bytes.Join(mixedKeep, nil)) {
		t.Fatal("keep stream corrupted")
	}
}

// TestPinBlocksDelete: a chunk pinned by PinBatch (the dedup wire
// path's reservation) survives the deletion of every recipe that
// referenced it — the resurrect-or-lose guarantee at store level.
func TestPinBlocksDelete(t *testing.T) {
	s, err := New(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte("chunk a concurrent backup is about to skip")
	h := dedup.Sum(body)
	ingestNamed(t, s, "old", [][]byte{body})
	// A concurrent dedup stream pins before the delete lands.
	if _, missing, err := s.NewClaimer(false).PinBatch([]Hash{h}, nil); err != nil || len(missing) != 0 {
		t.Fatalf("pin: %v, missing %v", err, missing)
	}
	if _, err := s.DeleteRecipe("old"); err != nil {
		t.Fatal(err)
	}
	if rc := s.Refcount(h); rc != 1 {
		t.Fatalf("pinned chunk refcount %d after delete, want 1", rc)
	}
	data, ok, err := s.GetByHash(h)
	if err != nil || !ok || !bytes.Equal(data, body) {
		t.Fatalf("pinned chunk unreadable after delete: %v %v", ok, err)
	}
	// The pinned stream commits; deleting it then frees the chunk.
	if err := s.CommitRecipe("new", Recipe{h}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteRecipe("new"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Has(h); ok {
		t.Fatal("chunk survived its last release")
	}
}
