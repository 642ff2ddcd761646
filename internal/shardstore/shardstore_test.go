package shardstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"shredder/internal/chunker"
	"shredder/internal/dedup"
	"shredder/internal/workload"
)

// putAll stores chunks one batch, returning the refs.
func putAll(t testing.TB, s *Store, chunks [][]byte) []Ref {
	t.Helper()
	refs, _, err := s.PutBatch(chunks)
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// corpus cuts a deterministic snapshot series into content-defined
// chunks: a realistic dedup workload with repeats across snapshots.
func corpus(t testing.TB, seed int64, size int, snapshots int) [][]byte {
	t.Helper()
	chk, err := chunker.New(chunker.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	im := workload.NewImage(seed, size, 16<<10, 0.2)
	var out [][]byte
	add := func(img []byte) {
		for _, c := range chk.Split(img) {
			out = append(out, img[c.Offset:c.End()])
		}
	}
	add(im.Master)
	for i := 0; i < snapshots; i++ {
		add(im.Snapshot(seed + int64(i)))
	}
	return out
}

// TestDifferentialAgainstDedupStore drives dedup.Store and Store with
// the same chunk sequence and asserts byte-identical semantics: same
// per-chunk duplicate classification, same aggregate Stats, and
// byte-exact reconstruction — for every shard count.
func TestDifferentialAgainstDedupStore(t *testing.T) {
	chunks := corpus(t, 42, 1<<20, 2)
	for _, shards := range []int{1, 2, 16, 128} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ref, err := dedup.NewStore(0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := New(shards, 0)
			if err != nil {
				t.Fatal(err)
			}
			var refRecipe dedup.Recipe
			var gotRecipe Recipe
			for i, c := range chunks {
				rr, rdup := ref.Put(c)
				_, gdup, perr := got.Put(c)
				if perr != nil {
					t.Fatal(perr)
				}
				if rdup != gdup {
					t.Fatalf("chunk %d: dup=%v, dedup.Store says %v", i, gdup, rdup)
				}
				refRecipe = append(refRecipe, rr)
				gotRecipe = append(gotRecipe, dedup.Sum(c))
			}
			if rs, gs := ref.Stats(), got.Stats(); rs != gs {
				t.Fatalf("stats diverge:\n dedup: %+v\n shard: %+v", rs, gs)
			}
			want, err := ref.Reconstruct(refRecipe)
			if err != nil {
				t.Fatal(err)
			}
			have, err := got.Reconstruct(gotRecipe)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, have) {
				t.Fatal("reconstructed streams differ")
			}
		})
	}
}

// TestSingleShardPackingIdentical pins down the strongest form of the
// differential guarantee: with one shard, every ref (container, offset,
// length) matches dedup.Store exactly.
func TestSingleShardPackingIdentical(t *testing.T) {
	chunks := corpus(t, 7, 1<<20, 1)
	ref, err := dedup.NewStore(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		rr, _ := ref.Put(c)
		gr, _, _ := got.Put(c)
		if gr.Shard != 0 || gr.Container != rr.Container || gr.Offset != rr.Offset || gr.Length != rr.Length {
			t.Fatalf("chunk %d: ref %+v, dedup.Store packs %+v", i, gr, rr)
		}
	}
	if got.Containers() != ref.Containers() {
		t.Fatalf("containers: %d vs %d", got.Containers(), ref.Containers())
	}
}

// TestBatchMatchesSequential asserts PutBatch/WriteStream classify and
// pack exactly like sequential Puts on an identically-seeded store —
// including duplicates *within* one batch.
func TestBatchMatchesSequential(t *testing.T) {
	chunks := corpus(t, 11, 1<<20, 1)
	// Force intra-batch duplicates.
	chunks = append(chunks, chunks[0], chunks[1], chunks[0])
	seq, err := New(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := New(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	var seqDups int
	seqRefs := make([]Ref, len(chunks))
	for i, c := range chunks {
		r, dup, _ := seq.Put(c)
		seqRefs[i] = r
		if dup {
			seqDups++
		}
	}
	batRefs, batDup, err := bat.PutBatch(chunks)
	if err != nil {
		t.Fatal(err)
	}
	batDups := 0
	for _, d := range batDup {
		if d {
			batDups++
		}
	}
	if batDups != seqDups {
		t.Fatalf("batch found %d dups, sequential %d", batDups, seqDups)
	}
	if seq.Stats() != bat.Stats() {
		t.Fatalf("stats diverge:\n seq: %+v\n bat: %+v", seq.Stats(), bat.Stats())
	}
	for i := range chunks {
		if seqRefs[i] != batRefs[i] {
			t.Fatalf("chunk %d: batch ref %+v, sequential %+v", i, batRefs[i], seqRefs[i])
		}
	}
	// HasBatch agrees with Has for everything just written plus misses.
	hs := make([]Hash, 0, len(chunks)+1)
	for _, c := range chunks {
		hs = append(hs, dedup.Sum(c))
	}
	hs = append(hs, dedup.Sum([]byte("never stored")))
	present := bat.HasBatch(hs)
	for i, h := range hs {
		if _, ok := bat.Has(h); ok != present[i] {
			t.Fatalf("hash %d: Has=%v HasBatch=%v", i, ok, present[i])
		}
	}
	if present[len(present)-1] {
		t.Fatal("HasBatch reported a never-stored hash as present")
	}
}

// failAppend is a shard backing whose every Append fails.
type failAppend struct{ ShardBacking }

var errInjectedAppend = errors.New("injected append failure")

func (failAppend) Append(Hash, []byte) (int, int64, error) {
	return 0, 0, errInjectedAppend
}

// faultBacking is a MemoryBacking whose shard fail rejects every Append.
type faultBacking struct {
	*MemoryBacking
	fail int
}

func (b faultBacking) Shard(i int) ShardBacking {
	if i == b.fail {
		return failAppend{b.MemoryBacking.Shard(i)}
	}
	return b.MemoryBacking.Shard(i)
}

// TestBatchErrorStopsInShardOrder: a batch visits shards in ascending
// order and stops at the first backing error, so which chunks stay
// applied is the same on every run — every shard before the failing
// one, none after it.
func TestBatchErrorStopsInShardOrder(t *testing.T) {
	chunks, hs := testChunks(64)
	for run := 0; run < 10; run++ {
		mb, err := NewMemoryBacking(4, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(faultBacking{mb, 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.PutHashedBatch(hs, chunks); !errors.Is(err, errInjectedAppend) {
			t.Fatalf("run %d: batch error %v, want the injected failure", run, err)
		}
		var perShard [4]int
		var applied int64
		for i, h := range hs {
			si := s.shardFor(h).idx
			perShard[si]++
			_, ok := s.Has(h)
			if want := si < 2; ok != want {
				t.Fatalf("run %d: chunk %d on shard %d present=%v, want %v", run, i, si, ok, want)
			}
			if ok {
				applied++
			}
		}
		for si, n := range perShard {
			if n == 0 {
				t.Fatalf("no chunk maps to shard %d; the batch does not exercise it", si)
			}
		}
		if got := s.Stats().UniqueChunks; got != applied {
			t.Fatalf("run %d: stats count %d unique chunks, %d are applied", run, got, applied)
		}
	}
}

// TestConcurrentPut hammers the store from many goroutines — each
// writing its own stream with heavy cross-stream overlap — and checks
// the aggregate totals and every stream's reconstruction. Run under
// -race this is the striped-locking correctness test.
func TestConcurrentPut(t *testing.T) {
	const writers = 8
	store, err := New(32, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	shared := corpus(t, 99, 1<<20, 0) // every writer stores these
	streams := make([][][]byte, writers)
	for w := range streams {
		own := corpus(t, 1000+int64(w), 256<<10, 0)
		streams[w] = append(append([][]byte{}, shared...), own...)
	}
	recipes := make([]Recipe, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, c := range streams[w] {
				store.Put(c)
				recipes[w] = append(recipes[w], dedup.Sum(c))
			}
		}(w)
	}
	wg.Wait()

	var wantLogical int64
	var wantChunks int64
	for _, st := range streams {
		for _, c := range st {
			wantLogical += int64(len(c))
			wantChunks++
		}
	}
	st := store.Stats()
	if st.LogicalBytes != wantLogical || st.Chunks != wantChunks {
		t.Fatalf("aggregate stats %+v, want logical=%d chunks=%d", st, wantLogical, wantChunks)
	}
	if st.Chunks != st.UniqueChunks+st.IndexHits {
		t.Fatalf("chunks %d != unique %d + hits %d", st.Chunks, st.UniqueChunks, st.IndexHits)
	}
	// The shared corpus must be stored once, not once per writer.
	if st.StoredBytes >= wantLogical/2 {
		t.Fatalf("stored %d of %d logical: cross-writer dedup failed", st.StoredBytes, wantLogical)
	}
	for w := 0; w < writers; w++ {
		var want []byte
		for _, c := range streams[w] {
			want = append(want, c...)
		}
		got, err := store.Reconstruct(recipes[w])
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("writer %d: reconstruction differs", w)
		}
	}
}

// TestConcurrentMixed interleaves readers (Has/Get/Stats) with writers
// (PutBatch) to exercise the RWMutex paths under -race.
func TestConcurrentMixed(t *testing.T) {
	store, err := New(8, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	chunks := corpus(t, 5, 512<<10, 0)
	seedRefs := putAll(t, store, chunks[:len(chunks)/2])
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, c := range chunks[:len(chunks)/2] {
					h := dedup.Sum(c)
					if _, ok := store.Has(h); !ok {
						t.Error("seeded chunk missing")
						return
					}
					data, err := store.Get(seedRefs[i])
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(data, c) {
						t.Error("Get returned wrong bytes during concurrent writes")
						return
					}
					_ = store.Stats()
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			own := corpus(t, 2000+int64(w), 128<<10, 0)
			for i := 0; i < len(own); i += 16 {
				end := i + 16
				if end > len(own) {
					end = len(own)
				}
				store.PutBatch(own[i:end])
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestNewValidation covers the constructor's error paths.
func TestNewValidation(t *testing.T) {
	for _, bad := range []int{-1, 3, 6, MaxShards * 2} {
		if _, err := New(bad, 0); err == nil {
			t.Errorf("New(%d, 0) accepted", bad)
		}
	}
	if _, err := New(4, -1); err == nil {
		t.Error("negative container size accepted")
	}
	s, err := New(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 16 {
		t.Fatalf("default shards = %d, want 16", s.NumShards())
	}
}

// TestGetOutOfRange covers the Get error paths.
func TestGetOutOfRange(t *testing.T) {
	s, err := New(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, _ := s.Put([]byte("hello"))
	for _, bad := range []Ref{
		{Shard: -1},
		{Shard: 99},
		{Shard: ref.Shard, Container: 5},
		{Shard: ref.Shard, Container: ref.Container, Offset: 1 << 30, Length: 1},
		{Shard: ref.Shard, Container: ref.Container, Offset: 0, Length: -1},
	} {
		if _, err := s.Get(bad); err == nil {
			t.Errorf("Get(%+v) succeeded", bad)
		}
	}
	if n := s.Refcount(dedup.Sum([]byte("hello"))); n != 1 {
		t.Fatalf("refcount = %d, want 1", n)
	}
	s.Put([]byte("hello"))
	if n := s.Refcount(dedup.Sum([]byte("hello"))); n != 2 {
		t.Fatalf("refcount = %d, want 2", n)
	}
}
