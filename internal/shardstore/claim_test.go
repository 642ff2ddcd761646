package shardstore

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// pinResult is one Claimer.PinBatch outcome, for calls run in a
// goroutine.
type pinResult struct {
	refs    []Ref
	missing []int
	err     error
}

func pinAsync(c *Claimer, hs []Hash) <-chan pinResult {
	out := make(chan pinResult, 1)
	go func() {
		refs, missing, err := c.PinBatch(hs, nil)
		out <- pinResult{refs, missing, err}
	}()
	return out
}

// testClaimer is an active claimer with its wait budget set to wait.
func testClaimer(s *Store, wait time.Duration) *Claimer {
	c := s.NewClaimer(true)
	c.wait = wait
	return c
}

// stillWaiting fails the test if the asynchronous PinBatch has already
// answered: it must be blocked on another claimer's upload.
func stillWaiting(t *testing.T, ch <-chan pinResult) {
	t.Helper()
	select {
	case r := <-ch:
		t.Fatalf("PinBatch answered %+v while the claim was still in flight", r)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestClaimWaitsForInFlightUpload: the second session to ask for an
// absent fingerprint is not told to upload it; it waits for the first
// session's body and is pinned on it.
func TestClaimWaitsForInFlightUpload(t *testing.T) {
	s, err := New(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	chunks, hs := testChunks(8)
	a, b := testClaimer(s, time.Minute), testClaimer(s, time.Minute)
	_, missing, err := a.PinBatch(hs, nil)
	if err != nil || len(missing) != len(hs) {
		t.Fatalf("first claimer: missing %v, err %v", missing, err)
	}
	ch := pinAsync(b, hs)
	stillWaiting(t, ch)
	refs, _, err := s.PutHashedBatch(hs, chunks)
	if err != nil {
		t.Fatal(err)
	}
	a.Drop()
	r := <-ch
	if r.err != nil || len(r.missing) != 0 {
		t.Fatalf("waiter: missing %v, err %v; want every fingerprint pinned", r.missing, r.err)
	}
	if !reflect.DeepEqual(r.refs, refs) {
		t.Fatalf("waiter refs %v, want the uploaded %v", r.refs, refs)
	}
	for i, h := range hs {
		if got := s.Refcount(h); got != 2 {
			t.Fatalf("refcount[%d] = %d, want 2", i, got)
		}
	}
	if st := s.Stats(); st.Chunks != 16 || st.UniqueChunks != 8 || st.IndexHits != 8 {
		t.Fatalf("stats %+v, want 16 chunks / 8 unique / 8 hits", st)
	}
}

// TestClaimHandOffOnDrop is the claimer-abort case: when the claimer
// drops its claims without uploading, the waiter is told the chunk is
// missing and takes the claim over, so a third session now waits on
// the waiter's upload.
func TestClaimHandOffOnDrop(t *testing.T) {
	s, err := New(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	chunks, hs := testChunks(4)
	a, b := testClaimer(s, time.Minute), testClaimer(s, time.Minute)
	if _, _, err := a.PinBatch(hs, nil); err != nil {
		t.Fatal(err)
	}
	chB := pinAsync(b, hs)
	stillWaiting(t, chB)
	a.Drop()
	r := <-chB
	if r.err != nil || !reflect.DeepEqual(r.missing, []int{0, 1, 2, 3}) {
		t.Fatalf("after the claimer dropped: missing %v, err %v; want all four", r.missing, r.err)
	}
	c := testClaimer(s, time.Minute)
	chC := pinAsync(c, hs)
	stillWaiting(t, chC)
	if _, _, err := s.PutHashedBatch(hs, chunks); err != nil {
		t.Fatal(err)
	}
	b.Drop()
	if r := <-chC; r.err != nil || len(r.missing) != 0 {
		t.Fatalf("third claimer: missing %v, err %v; want every fingerprint pinned", r.missing, r.err)
	}
	for i, h := range hs {
		if got := s.Refcount(h); got != 2 {
			t.Fatalf("refcount[%d] = %d, want 2 (one upload, one pin)", i, got)
		}
	}
}

// TestClaimWaitTimeout: a claimer that never uploads costs a waiter's
// batch at most its wait budget, in total however many of the batch's
// fingerprints it holds, after which the waiter is told to upload them
// itself — and the stalled claims stay their owner's.
func TestClaimWaitTimeout(t *testing.T) {
	s, err := New(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, hs := testChunks(3)
	a := testClaimer(s, time.Minute)
	if _, _, err := a.PinBatch(hs[:2], nil); err != nil {
		t.Fatal(err)
	}
	b := testClaimer(s, 10*time.Millisecond)
	_, missing, err := b.PinBatch(hs, nil)
	if err != nil || !reflect.DeepEqual(missing, []int{0, 1, 2}) {
		t.Fatalf("missing %v, err %v; want all three", missing, err)
	}
	if w, to := s.claimWaits.Load(), s.claimTimeouts.Load(); w != 1 || to != 1 {
		t.Fatalf("claim waits %d / timeouts %d, want 1 / 1", w, to)
	}
	for _, h := range hs[:2] {
		if cl := s.shardFor(h).claims[h]; cl == nil || cl.owner != a {
			t.Fatal("the timed-out waiter took over a claim it never got")
		}
	}
	a.Drop()
	b.Drop()
	for _, sh := range s.shards {
		if len(sh.claims) != 0 {
			t.Fatalf("shard %d keeps %d claims after every claimer dropped", sh.idx, len(sh.claims))
		}
	}
}

// TestPassiveClaimer: a passive claimer (a routed sub-stream's) pins
// what is present and reports the rest missing at once — it neither
// waits on another claimer's in-flight upload nor claims anything.
func TestPassiveClaimer(t *testing.T) {
	s, err := New(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	chunks, hs := testChunks(4)
	if _, _, err := s.PutHashedBatch(hs[:1], chunks[:1]); err != nil {
		t.Fatal(err)
	}
	a := testClaimer(s, time.Minute)
	if _, _, err := a.PinBatch(hs[1:3], nil); err != nil {
		t.Fatal(err)
	}
	p := s.NewClaimer(false)
	refs, missing, err := p.PinBatch(hs, nil)
	if err != nil || !reflect.DeepEqual(missing, []int{1, 2, 3}) {
		t.Fatalf("missing %v, err %v; want [1 2 3]", missing, err)
	}
	if refs[0].Length != int64(len(chunks[0])) || s.Refcount(hs[0]) != 2 {
		t.Fatalf("present chunk not pinned: ref %+v, refcount %d", refs[0], s.Refcount(hs[0]))
	}
	if w := s.claimWaits.Load(); w != 0 || len(p.held) != 0 {
		t.Fatalf("passive claimer waited %d times and took %d claims", w, len(p.held))
	}
	if cl := s.shardFor(hs[3]).claims[hs[3]]; cl != nil {
		t.Fatal("passive claimer claimed a missing fingerprint")
	}
}

// TestClaimRepeatInBatch: a fingerprint repeated within one batch is
// reported missing at each occurrence, as PinBatch reports it, and is
// claimed once.
func TestClaimRepeatInBatch(t *testing.T) {
	s, err := New(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, hs := testChunks(2)
	c := testClaimer(s, time.Minute)
	_, missing, err := c.PinBatch([]Hash{hs[0], hs[1], hs[0]}, nil)
	if err != nil || !reflect.DeepEqual(missing, []int{0, 1, 2}) {
		t.Fatalf("missing %v, err %v; want [0 1 2]", missing, err)
	}
	if len(c.held) != 2 {
		t.Fatalf("%d claims taken, want 2", len(c.held))
	}
}

// TestClaimRoundsNoDeadlock races sessions that each announce the same
// fingerprints in a different shuffled order, round after round: with
// waits visited in the global claim order no set of sessions can wait
// on each other, so nothing times out, and each chunk is uploaded by
// exactly one session.
func TestClaimRoundsNoDeadlock(t *testing.T) {
	s, err := New(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	chunks, hs := testChunks(512)
	const sessions, rounds = 6, 8
	per := len(hs) / rounds
	var uploads [sessions]int
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			c := testClaimer(s, 5*time.Second)
			for r := 0; r < rounds; r++ {
				idx := rng.Perm(len(hs))[:2*per]
				batch := make([]Hash, len(idx))
				for i, k := range idx {
					batch[i] = hs[k]
				}
				_, missing, err := c.PinBatch(batch, nil)
				if err != nil {
					t.Error(err)
					return
				}
				up := make([][]byte, len(missing))
				upHs := make([]Hash, len(missing))
				for i, m := range missing {
					up[i], upHs[i] = chunks[idx[m]], batch[m]
				}
				if _, _, err := s.PutHashedBatch(upHs, up); err != nil {
					t.Error(err)
					return
				}
				c.Drop()
				uploads[g] += len(missing)
			}
		}(g)
	}
	wg.Wait()
	if to := s.claimTimeouts.Load(); to != 0 {
		t.Fatalf("%d claim waits timed out", to)
	}
	st := s.Stats()
	total := 0
	for _, n := range uploads {
		total += n
	}
	if int64(total) != st.UniqueChunks {
		t.Fatalf("%d bodies uploaded for %d unique chunks", total, st.UniqueChunks)
	}
	if want := int64(sessions * rounds * 2 * per); st.Chunks != want {
		t.Fatalf("chunks %d, want %d", st.Chunks, want)
	}
}
