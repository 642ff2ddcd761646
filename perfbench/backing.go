package main

import (
	"sync"
	"sync/atomic"
	"time"

	"shredder/internal/obs"
	"shredder/internal/shardstore"
)

// The traced run measures the persist layer from outside: timedBacking
// wraps a durable backing (and each of its shards) and times every call
// the store makes into it, forwarding everything else unchanged.

// spanSink is the store's (unexported) hook for attributing backing I/O
// to the request span. The wrapper must forward it, or the program's
// wal_append/fsync/recipe_append spans vanish from the traced run.
type spanSink interface{ SetSpan(*obs.Span) }

// durableBacking is what the wrapper needs of the wrapped backing:
// persist.Backing provides all three.
type durableBacking interface {
	shardstore.Backing
	shardstore.BarrierBacking
	spanSink
}

// The store discovers group commit and span attribution by type
// assertion, so a wrapper that dropped either would silently change
// the program: without Barrier, acks would outrun the fsync.
var (
	_ shardstore.Backing        = (*timedBacking)(nil)
	_ shardstore.BarrierBacking = (*timedBacking)(nil)
	_ spanSink                  = (*timedBacking)(nil)
	_ shardstore.ShardBacking   = (*timedShard)(nil)
	_ spanSink                  = (*timedShard)(nil)
)

// counter accumulates a call count, a byte count and busy time.
type counter struct {
	calls atomic.Int64
	bytes atomic.Int64
	nanos atomic.Int64
}

func (c *counter) add(t0 time.Time, bytes int64) {
	c.nanos.Add(int64(time.Since(t0)))
	c.bytes.Add(bytes)
	c.calls.Add(1)
}

// persistCounters is a point-in-time copy of the wrapper's counters.
type persistCounters struct {
	appendB, appendNs int64
	refDeltas         int64
	commitNs          int64
	readB, readNs     int64
	relocateB         int64
	checkpointNs      int64
}

type timedBacking struct {
	inner  durableBacking
	shards []*timedShard

	append, commit, read, relocate, checkpoint, refDelta, barrier counter

	// barrierLat keeps every Barrier wait for percentiles; record
	// gates it so set-up traffic stays out.
	mu         sync.Mutex
	record     bool
	barrierLat []float64
}

func newTimedBacking(inner durableBacking) *timedBacking {
	t := &timedBacking{inner: inner}
	for i := 0; i < inner.NumShards(); i++ {
		t.shards = append(t.shards, &timedShard{inner: inner.Shard(i), t: t})
	}
	return t
}

// startRecording clears the Barrier samples and keeps new ones.
func (t *timedBacking) startRecording() {
	t.mu.Lock()
	t.record = true
	t.barrierLat = t.barrierLat[:0]
	t.mu.Unlock()
}

func (t *timedBacking) barrierSamples() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.barrierLat...)
}

func (t *timedBacking) snapshot() persistCounters {
	return persistCounters{
		appendB:      t.append.bytes.Load(),
		appendNs:     t.append.nanos.Load(),
		refDeltas:    t.refDelta.calls.Load(),
		commitNs:     t.commit.nanos.Load(),
		readB:        t.read.bytes.Load(),
		readNs:       t.read.nanos.Load(),
		relocateB:    t.relocate.bytes.Load(),
		checkpointNs: t.checkpoint.nanos.Load(),
	}
}

func (t *timedBacking) NumShards() int                                 { return len(t.shards) }
func (t *timedBacking) Shard(i int) shardstore.ShardBacking            { return t.shards[i] }
func (t *timedBacking) Missing(hs []shardstore.Hash) []int             { return t.inner.Missing(hs) }
func (t *timedBacking) DeleteRecipe(name string) error                 { return t.inner.DeleteRecipe(name) }
func (t *timedBacking) Recipes() (map[string]shardstore.Recipe, error) { return t.inner.Recipes() }
func (t *timedBacking) Sync() error                                    { return t.inner.Sync() }
func (t *timedBacking) Close() error                                   { return t.inner.Close() }
func (t *timedBacking) SetSpan(sp *obs.Span)                           { t.inner.SetSpan(sp) }

func (t *timedBacking) CommitRecipe(name string, r shardstore.Recipe) error {
	return t.inner.CommitRecipe(name, r)
}

func (t *timedBacking) Barrier() error {
	t0 := time.Now()
	err := t.inner.Barrier()
	d := time.Since(t0)
	t.barrier.add(t0, 0)
	t.mu.Lock()
	if t.record {
		t.barrierLat = append(t.barrierLat, d.Seconds())
	}
	t.mu.Unlock()
	return err
}

type timedShard struct {
	inner shardstore.ShardBacking
	t     *timedBacking
}

func (s *timedShard) Recover(fn func(h shardstore.Hash, ref shardstore.Ref, refcount int64) error) error {
	return s.inner.Recover(fn)
}

func (s *timedShard) Append(h shardstore.Hash, data []byte) (int, int64, error) {
	t0 := time.Now()
	c, off, err := s.inner.Append(h, data)
	s.t.append.add(t0, int64(len(data)))
	return c, off, err
}

func (s *timedShard) LogRefDelta(h shardstore.Hash, delta int64) error {
	s.t.refDelta.calls.Add(1)
	return s.inner.LogRefDelta(h, delta)
}

func (s *timedShard) Forget(h shardstore.Hash) { s.inner.Forget(h) }

func (s *timedShard) Commit() error {
	t0 := time.Now()
	err := s.inner.Commit()
	s.t.commit.add(t0, 0)
	return err
}

func (s *timedShard) Read(container int, offset, length int64) ([]byte, error) {
	t0 := time.Now()
	b, err := s.inner.Read(container, offset, length)
	s.t.read.add(t0, int64(len(b)))
	return b, err
}

func (s *timedShard) Containers() int          { return s.inner.Containers() }
func (s *timedShard) ContainerLen(i int) int64 { return s.inner.ContainerLen(i) }

func (s *timedShard) Relocate(h shardstore.Hash, data []byte) (int, int64, error) {
	t0 := time.Now()
	c, off, err := s.inner.Relocate(h, data)
	s.t.relocate.add(t0, int64(len(data)))
	return c, off, err
}

func (s *timedShard) Checkpoint(live []shardstore.CheckpointEntry, drop []int) error {
	t0 := time.Now()
	err := s.inner.Checkpoint(live, drop)
	s.t.checkpoint.add(t0, 0)
	return err
}

// SetSpan forwards to the wrapped shard; every persist shard is a sink.
func (s *timedShard) SetSpan(sp *obs.Span) {
	if sink, ok := s.inner.(spanSink); ok {
		sink.SetSpan(sp)
	}
}
