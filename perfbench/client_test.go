package main

import (
	"slices"
	"testing"

	"shredder/internal/chunk"
	"shredder/internal/obs"
)

// The traced run drives the dedup client by hand so it can time each
// layer; it must be the same program as Session.BackupDedup: the same
// wire statistics, recipes and store statistics on the same input.
func TestTracedDedupMatchesBackupDedup(t *testing.T) {
	lib, hand := memServer(t), memServer(t)
	ls, hs := dedupSession(t, lib), dedupSession(t, hand)
	eng, err := chunk.New(hs.Spec())
	if err != nil {
		t.Fatal(err)
	}
	gen := newNightly(21, 4<<20, nightlySeg, 2, 0.1, 0.02)
	ins := []input{newInput("golden", slices.Clone(gen.golden))}
	for night := 1; night <= 3; night++ {
		for v, snap := range gen.advance(night) {
			ins = append(ins, newInput(nightName(v, night), slices.Clone(snap)))
		}
	}
	// Streams far past one round's byte cap exercise the mid-stream flush.
	big := make([]byte, 3*dedupBatchBytes)
	fill(big, 77)
	ins = append(ins, newInput("big", big), newInput("big-again", big))
	for _, in := range ins {
		want, err := ls.BackupDedupBytes(in.name, in.data)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := tracedBackupDedup(hs, eng, in.name, in.data, obs.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("%s: hand-driven stats %+v, BackupDedup %+v", in.name, *got, *want)
		}
		wr, _ := lib.Recipe(in.name)
		gr, _ := hand.Recipe(in.name)
		if !slices.Equal(wr, gr) {
			t.Errorf("%s: recipes differ", in.name)
		}
	}
	if a, b := lib.Store().Stats(), hand.Store().Stats(); a != b {
		t.Errorf("store stats: hand-driven %+v, BackupDedup %+v", b, a)
	}
}
