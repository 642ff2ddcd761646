package shardstore

import (
	"bytes"
	"sort"
	"time"

	"shredder/internal/obs"
)

// In-flight upload claims.
//
// A pin answers "missing" for every fingerprint the index lacks, so N
// sessions that start on the same new content at once are each told to
// upload it: the index only learns of a chunk once its body lands. An
// active Claimer closes that window. The first session to be told a
// fingerprint is missing claims it; a later session asking for the
// same fingerprint waits (outside the stripe lock) until the claimer's
// put lands and is then pinned like any duplicate. If the claimer
// gives up instead — its stream aborted, or its round failed — the
// claim is dropped and the waiter, finding the fingerprint absent and
// unclaimed, claims it itself and asks its own client for the body.
// Because the wait happens before the waiter's answer goes out, that
// hand-off needs nothing from the wire protocol.
//
// Deadlock freedom: a batch visits its fingerprints in one global
// order, (shard, fingerprint), and waits only on a fingerprint later
// in that order than every claim it took earlier in the same batch.
// Along any chain of waiting sessions the awaited keys strictly
// increase, so the chain ends at a session that is not waiting on the
// store — one receiving its bodies. A session holds claims only from
// its current round (Drop settles them when the round ends), so claims
// never outlive the round that took them.
//
// Every wait is bounded: one PinBatch waits at most MaxClaimWait in
// total. A claimer whose client stalls mid-round costs a waiter at
// most that much, after which the waiter uploads the chunks itself —
// the duplicate upload the store made before claims existed.
//
// Waits across stores are another matter. A router's dedup client
// sends its bodies only once every node has answered its round, so a
// sub-stream waiting on one node can hold up the bodies another
// node's waiters need: a cycle no single store sees. A routed
// sub-stream therefore gets a passive claimer, which neither claims
// nor waits, and only pins.

// MaxClaimWait bounds how long one Claimer.PinBatch waits, summed over
// the batch, for other claimers' in-flight uploads; past it, the
// waiter uploads the remaining claimed chunks itself. Healthy waits
// are far shorter: on a 2-vCPU box they stayed under 15 ms against a
// durable store (fsync always) and under 70 ms in the in-memory
// concurrency tests.
const MaxClaimWait = 500 * time.Millisecond

// claim is one fingerprint's in-flight upload.
type claim struct {
	owner *Claimer
	done  chan struct{} // closed once the body lands or the claim is dropped
}

// Claimer is one uploader's claim identity: a dedup session takes one
// for its lifetime. Its methods must not be called concurrently.
type Claimer struct {
	s    *Store
	wait time.Duration // per-batch wait budget; 0 makes the claimer passive
	held []Hash        // claims taken since the last Drop (some may be resolved)
}

// NewClaimer returns a claimer for one dedup stream. An active claimer
// claims what it is told is missing and waits out other claimers'
// uploads; a passive one (active false) does neither.
func (s *Store) NewClaimer(active bool) *Claimer {
	c := &Claimer{s: s}
	if active {
		c.wait = MaxClaimWait
	}
	return c
}

// PinBatch answers a batched Matching query while taking one reference
// on every fingerprint it answers "present" for, under that shard's
// stripe lock and journaled like any duplicate hit. This is the
// primitive behind the ingest protocol's HasBatch: by the time the
// server tells a client to skip a chunk body, the stream's reference
// is already counted, so no concurrent reclaim — DeleteRecipe or the
// compactor — can free the chunk between the answer and the stream's
// recipe commit. Present fingerprints get their Ref in refs and are
// accounted exactly like a duplicate Put; absent ones come back as
// ascending indices in missing with a zero Ref. On a backing error the
// batch stops early: pins already applied stay applied (and accounted).
//
// An active claimer also claims every fingerprint it reports missing,
// until its body is put (any put resolves a claim) or Drop, and waits
// on fingerprints other claimers hold: each is answered "present" (and
// pinned) once that upload lands. A fingerprint repeated within the
// batch is reported missing at each occurrence. The backing's WAL
// appends and fsyncs for the pins become children of sp, and the
// latency observation carries sp's trace as its bucket exemplar.
func (c *Claimer) PinBatch(hs []Hash, sp *obs.Span) (refs []Ref, missing []int, err error) {
	s := c.s
	if h := s.missingSeconds; h != nil {
		defer h.ObserveSinceExemplar(time.Now(), sp.Trace())
	}
	refs = make([]Ref, len(hs))
	found := make([]bool, len(hs))
	order := s.claimOrder(hs)
	var t pinTally
	var waits, timeouts int64
	left := c.wait // the batch's remaining wait budget
	for pos := 0; pos < len(order); {
		sh := s.shardFor(hs[order[pos]])
		end := pos + 1
		for end < len(order) && s.shardFor(hs[order[end]]) == sh {
			end++
		}
		n, wait, perr := sh.pin(c, left > 0, hs, order[pos:end], refs, found, &t, sp)
		pos += n
		if perr != nil {
			err = perr
			break
		}
		if wait != nil {
			// Revisit the same fingerprint once the claim resolves: it
			// is then present (pin it) or absent and free (claim it).
			// Once the budget is spent, leave it missing and unclaimed
			// and wait on nothing more in this batch.
			waits++
			t0 := time.Now()
			if c.await(wait, left) {
				left -= time.Since(t0)
			} else {
				timeouts++
				left = 0
				pos++
			}
		}
	}
	if err == nil {
		err = s.commitBarrier()
	}
	s.chunks.Add(t.chunks)
	s.logical.Add(t.logical)
	s.hits.Add(t.chunks)
	if waits > 0 {
		sp.Set(obs.Int("claim_waits", waits), obs.Int("claim_timeouts", timeouts))
	}
	missing = make([]int, 0, len(hs))
	for i, ok := range found {
		if !ok {
			missing = append(missing, i)
		}
	}
	return refs, missing, err
}

// Drop releases every claim c still holds, waking the sessions waiting
// on them. Call it once a round's bodies are stored or abandoned, and
// when the stream ends.
func (c *Claimer) Drop() {
	for _, h := range c.held {
		sh := c.s.shardFor(h)
		sh.mu.Lock()
		if cl, ok := sh.claims[h]; ok && cl.owner == c {
			delete(sh.claims, h)
			close(cl.done)
		}
		sh.mu.Unlock()
	}
	c.held = c.held[:0]
}

// await blocks until done closes or d passes, reporting whether the
// claim resolved in time.
func (c *Claimer) await(done <-chan struct{}, d time.Duration) bool {
	c.s.claimWaits.Add(1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		c.s.claimTimeouts.Add(1)
		return false
	}
}

// pinTally accumulates a batch's aggregate-counter deltas.
type pinTally struct{ chunks, logical int64 }

// claimOrder returns the indices of hs in the global claim order:
// shard, then fingerprint, then batch position.
func (s *Store) claimOrder(hs []Hash) []int {
	order := make([]int, len(hs))
	shardOf := make([]int, len(hs))
	for i := range hs {
		order[i] = i
		shardOf[i] = s.shardFor(hs[i]).idx
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if shardOf[i] != shardOf[j] {
			return shardOf[i] < shardOf[j]
		}
		if c := bytes.Compare(hs[i][:], hs[j][:]); c != 0 {
			return c < 0
		}
		return i < j
	})
	return order
}

// pin visits idxs (all in sh, in claim order) under sh's stripe lock:
// present fingerprints are pinned, absent ones claimed for an active
// c. If mayWait, it stops at the first fingerprint another claimer
// holds, returning how many it visited and that claim's done channel
// for the caller to wait on after the lock is released.
func (sh *shard) pin(c *Claimer, mayWait bool, hs []Hash, idxs []int, refs []Ref, found []bool, t *pinTally, sp *obs.Span) (n int, wait chan struct{}, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sp != nil {
		sh.setSpan(sp)
		defer sh.setSpan(nil)
	}
	pinned := false
	for ; n < len(idxs); n++ {
		i := idxs[n]
		h := hs[i]
		if e, ok := sh.index[h]; ok {
			if err := sh.back.LogRefDelta(h, 1); err != nil {
				return n, nil, err
			}
			e.rc++
			sh.index[h] = e
			refs[i], found[i] = e.ref, true
			t.chunks++
			t.logical += e.ref.Length
			pinned = true
			continue
		}
		if c.wait == 0 {
			continue // passive
		}
		if cl, ok := sh.claims[h]; ok {
			if cl.owner != c && mayWait {
				wait = cl.done
				break
			}
			continue
		}
		sh.claims[h] = &claim{owner: c, done: make(chan struct{})}
		c.held = append(c.held, h)
	}
	if pinned {
		if err := sh.back.Commit(); err != nil {
			return n, nil, err
		}
	}
	return n, wait, nil
}
