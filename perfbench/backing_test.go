package main

import (
	"io/fs"
	"maps"
	"path/filepath"
	"testing"

	"shredder/internal/dedup"
	"shredder/internal/ingest"
	"shredder/internal/obs"
	"shredder/internal/persist"
	"shredder/internal/shardstore"
)

// seededRetention runs a small seeded retention sequence on a fresh
// persist store in dir, wrapped in the timing backing when wrap is set,
// and returns the final stats and the data dir's file sizes.
func seededRetention(t *testing.T, dir string, wrap bool, tracer *obs.Tracer) (dedup.Stats, map[string]int64, *timedBacking) {
	t.Helper()
	b, err := persist.Open(dir, storeOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	var back shardstore.Backing = b
	var tb *timedBacking
	if wrap {
		tb = newTimedBacking(b)
		back = tb
	}
	st, err := shardstore.Open(back)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ingest.DefaultConfig()
	cfg.Tracer = tracer
	srv, err := ingest.NewServerWithStore(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	s := dedupSession(t, srv)
	gen := newGenerations(31, 3, 1<<20, retSeg, retChurn)
	for g := 0; g < 4; g++ {
		if g > 0 {
			gen.advance(g)
		}
		for f, data := range gen.files {
			if _, err := s.BackupDedupBytes(genName(g, f), data); err != nil {
				t.Fatal(err)
			}
		}
	}
	for f := range gen.files {
		if _, err := s.Delete(genName(0, f)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Compact(gcThreshold); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sizes := make(map[string]int64)
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		sizes[rel] = info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats, sizes, tb
}

// The timing wrapper must not change the program: same stats, same
// bytes on disk, file by file, and it must forward the group-commit
// barrier and span attribution the store looks for.
func TestTimedBackingMatchesPersist(t *testing.T) {
	spans := newSpanRollup()
	spans.on.Store(true)
	tracer := obs.NewTracer(obs.TracerConfig{SlowThreshold: 1, OnSlow: spans.onRoot, MaxSpansPerTrace: 1 << 20})
	wantStats, wantSizes, _ := seededRetention(t, t.TempDir(), false, nil)
	gotStats, gotSizes, tb := seededRetention(t, t.TempDir(), true, tracer)
	if gotStats != wantStats {
		t.Errorf("wrapped store stats %+v, unwrapped %+v", gotStats, wantStats)
	}
	if !maps.Equal(gotSizes, wantSizes) {
		t.Errorf("data dirs differ:\nwrapped   %v\nunwrapped %v", gotSizes, wantSizes)
	}
	if tb.barrier.calls.Load() == 0 {
		t.Error("the store never called Barrier through the wrapper")
	}
	if tb.append.calls.Load() == 0 || tb.read.calls.Load() != 0 {
		t.Errorf("the wrapper timed %d appends and %d reads, want some appends and no reads",
			tb.append.calls.Load(), tb.read.calls.Load())
	}
	for _, name := range []string{"wal_append", "recipe_append"} {
		if spans.total(name) == 0 {
			t.Errorf("no %s spans: SetSpan is not forwarded", name)
		}
	}
}
