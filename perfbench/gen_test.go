package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"testing"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
)

// inputDigests hashes a few streams of every generator for one seed.
func inputDigests(seed int64) [][sha256.Size]byte {
	var out [][sha256.Size]byte
	buf := make([]byte, 64<<10)
	for i := 0; i < 4; i++ {
		rawStream(buf, seed, i%2, i)
		out = append(out, sha256.Sum256(buf))
	}
	n := newNightly(seed, 1<<20, nightlySeg, 2, nightlyChurn, nightlyPatch)
	out = append(out, sha256.Sum256(n.golden))
	for night := 1; night <= 3; night++ {
		for _, snap := range n.advance(night) {
			out = append(out, sha256.Sum256(snap))
		}
	}
	g := newGenerations(seed, 2, 1<<20, retSeg, retChurn)
	for gen := 0; gen <= 3; gen++ {
		if gen > 0 {
			g.advance(gen)
		}
		for _, f := range g.files {
			out = append(out, sha256.Sum256(f))
		}
	}
	return out
}

func TestInputsRepeatPerSeed(t *testing.T) {
	a, b, c := inputDigests(11), inputDigests(11), inputDigests(12)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("stream %d: same seed, different input", i)
		}
		if a[i] == c[i] {
			t.Errorf("stream %d: different seeds, same input", i)
		}
	}
}

// The nightly patch must land byte-identically in both VMs on the same
// night, and be new to the store when it does.
func TestNightlyPatchSharedAndNew(t *testing.T) {
	srv := memServer(t)
	s := dedupSession(t, srv)
	gen := newNightly(5, 8<<20, nightlySeg, 2, nightlyChurn, nightlyPatch)
	if _, err := s.BackupDedupBytes("golden", gen.golden); err != nil {
		t.Fatal(err)
	}
	eng, err := chunk.New(chunkSpec)
	if err != nil {
		t.Fatal(err)
	}
	for night := 1; night <= 3; night++ {
		snaps := gen.advance(night)
		if len(gen.patch) == 0 {
			t.Fatalf("night %d: no patch", night)
		}
		var inside []dedup.Hash
		for _, seg := range gen.patch {
			if !bytes.Equal(gen.seg(snaps[0], seg), gen.seg(snaps[1], seg)) {
				t.Errorf("night %d: patch segment %d differs between the VMs", night, seg)
			}
			lo, hi := int64(seg*nightlySeg), int64((seg+1)*nightlySeg)
			for _, c := range eng.Split(snaps[0]) {
				if c.Offset >= lo && c.End() <= hi {
					inside = append(inside, dedup.Sum(snaps[0][c.Offset:c.End()]))
				}
			}
		}
		if len(inside) == 0 {
			t.Fatalf("night %d: no chunk lies inside the patch", night)
		}
		if missing := srv.Store().Missing(inside); len(missing) != len(inside) {
			t.Errorf("night %d: %d of %d patch chunks already stored", night, len(inside)-len(missing), len(inside))
		}
		for v, snap := range snaps {
			if _, err := s.BackupDedupBytes(nightName(v, night), snap); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestRetentionChurnFraction(t *testing.T) {
	p := retentionPlan(1)
	g := newGenerations(9, p.streams, p.size, retSeg, retChurn)
	prev := make([][]byte, len(g.files))
	for gen := 1; gen <= 3; gen++ {
		var changed, total int
		for f, b := range g.files {
			prev[f] = append(prev[f][:0], b...)
		}
		for f, b := range g.advance(gen) {
			for i := range b {
				if b[i] != prev[f][i] {
					changed++
				}
			}
			total += len(b)
		}
		if frac := float64(changed) / float64(total); math.Abs(frac-retChurn) > 0.01 {
			t.Errorf("generation %d churned %.4f of the bytes, want %.2f ± 0.01", gen, frac, retChurn)
		}
	}
}
