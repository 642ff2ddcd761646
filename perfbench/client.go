package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
	"shredder/internal/ingest"
	"shredder/internal/obs"
)

// The dedup client's round sizing, as Session.BackupDedup uses it: a
// HasBatch round covers up to dedupBatchChunks fingerprints or
// dedupBatchBytes of held bodies. TestTracedDedupMatchesBackupDedup
// pins the hand-driven loop below to the library's behaviour.
const (
	dedupBatchChunks = 256
	dedupBatchBytes  = 4 << 20
)

// clientTimes is what the traced client loop measures around its
// calls into each layer, for one stream.
type clientTimes struct {
	total     time.Duration // the whole backup call
	scan      time.Duration // chunk engine, Stream.Write/Close minus the emit callback
	sum       time.Duration // dedup.Sum
	has       []time.Duration
	upload    time.Duration // SendBodies
	uploadB   int64
	commit    time.Duration // CommitDedup, or the raw Backup's trailing ack
	accounted time.Duration // part of total the layers above account for
}

// tracedBackupDedup is Session.BackupDedup driven by hand through the
// session's round-level API, so the chunk engine, fingerprinting, the
// HasBatch round trip, the body upload and the commit can each be timed
// from outside. eng must be the engine the session negotiated. parent,
// when valid, parents the server's backup_dedup span.
func tracedBackupDedup(s *ingest.Session, eng chunk.Engine, name string, data []byte, parent obs.SpanContext) (*ingest.StreamStats, clientTimes, error) {
	var ct clientTimes
	start := time.Now()
	if err := s.BeginDedup(name, parent); err != nil {
		return nil, ct, err
	}
	var (
		hs     []dedup.Hash
		bodies [][]byte
		held   int64
		inEmit time.Duration
	)
	flush := func() error {
		if len(hs) == 0 {
			return nil
		}
		t0 := time.Now()
		missing, err := s.HasBatch(hs)
		ct.has = append(ct.has, time.Since(t0))
		if err != nil {
			return err
		}
		send := make([][]byte, 0, len(missing))
		for _, i := range missing {
			send = append(send, bodies[i])
			ct.uploadB += int64(len(bodies[i]))
		}
		t0 = time.Now()
		err = s.SendBodies(send...)
		ct.upload += time.Since(t0)
		if err != nil {
			return err
		}
		hs, bodies, held = hs[:0], bodies[:0], 0
		return nil
	}
	sink := eng.Stream(func(_ chunk.Chunk, b []byte) error {
		t0 := time.Now()
		h := dedup.Sum(b)
		t1 := time.Now()
		ct.sum += t1.Sub(t0)
		hs = append(hs, h)
		bodies = append(bodies, append([]byte(nil), b...))
		held += int64(len(b))
		var err error
		if len(hs) >= dedupBatchChunks || held >= dedupBatchBytes {
			err = flush()
		}
		inEmit += time.Since(t0)
		return err
	})
	t0 := time.Now()
	_, err := io.Copy(sink, bytes.NewReader(data))
	if err == nil {
		err = sink.Close()
	}
	ct.scan = time.Since(t0) - inEmit
	if err != nil {
		return nil, ct, err
	}
	if err := flush(); err != nil {
		return nil, ct, err
	}
	t0 = time.Now()
	st, err := s.CommitDedup()
	ct.commit = time.Since(t0)
	ct.total = time.Since(start)
	ct.accounted = ct.scan + ct.sum + sumDur(ct.has) + ct.upload + ct.commit
	return st, ct, err
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// eofReader marks when the raw Backup call has consumed its input: the
// rest of the call is the trailing ack (the server's last batch, recipe
// commit and fsync).
type eofReader struct {
	r   io.Reader
	eof time.Time
}

func (e *eofReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF && e.eof.IsZero() {
		e.eof = time.Now()
	}
	return n, err
}

// tracedBackupRaw is Session.Backup with the trailing ack timed.
func tracedBackupRaw(s *ingest.Session, name string, data []byte) (*ingest.StreamStats, clientTimes, error) {
	var ct clientTimes
	er := &eofReader{r: bytes.NewReader(data)}
	start := time.Now()
	st, err := s.Backup(name, er)
	end := time.Now()
	ct.total = end.Sub(start)
	if !er.eof.IsZero() {
		ct.commit = end.Sub(er.eof)
	}
	return st, ct, err
}

// errMismatch marks a restore whose bytes differ from what was backed
// up: a correctness failure of the run, not a failed operation.
var errMismatch = errors.New("restored bytes differ from the backed-up stream")

// digestWriter hashes and counts everything written to it.
type digestWriter struct {
	h hash.Hash
	n int64
}

func newDigestWriter() *digestWriter { return &digestWriter{h: sha256.New()} }

func (d *digestWriter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

// check compares the restored stream with the original's length and
// SHA-256 digest.
func (d *digestWriter) check(in input) error {
	var got [sha256.Size]byte
	copy(got[:], d.h.Sum(nil))
	if d.n != in.size || got != in.digest {
		return fmt.Errorf("%s: %w (%d bytes restored, %d backed up)", in.name, errMismatch, d.n, in.size)
	}
	return nil
}
