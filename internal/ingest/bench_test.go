package ingest

import (
	"fmt"
	"sync"
	"testing"

	"shredder/internal/chunk"
	"shredder/internal/workload"
)

// BenchmarkIngestThroughput streams concurrent client sessions into one
// server over in-memory pipes, varying the store's shard count: the
// contention knob this subsystem exists to turn. Bytes/op is the
// aggregate client payload.
func BenchmarkIngestThroughput(b *testing.B) {
	const sessions = 4
	const imageSize = 2 << 20
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("sessions=%d/shards=%d", sessions, shards), func(b *testing.B) {
			srv, err := NewServer(testConfig(shards))
			if err != nil {
				b.Fatal(err)
			}
			golden := workload.NewImage(1, imageSize, 64<<10, 0.1)
			images := make([][]byte, sessions)
			clients := make([]*Client, sessions)
			for i := range images {
				images[i] = golden.Snapshot(int64(i))
				clients[i] = startSession(b, srv)
			}
			b.SetBytes(int64(sessions * imageSize))
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				var wg sync.WaitGroup
				for i := 0; i < sessions; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						name := fmt.Sprintf("s%d-i%d", i, n)
						if _, err := clients[i].BackupBytes(name, images[i]); err != nil {
							b.Error(err)
						}
					}(i)
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkIngestSingleStream is the uncontended baseline: one session
// on the stock service configuration backing up one stream at a time
// with the server's default Rabin engine (no negotiation), at a small
// and a large stream size.
func BenchmarkIngestSingleStream(b *testing.B) {
	for _, size := range []int{2 << 20, 32 << 20} {
		b.Run(fmt.Sprintf("%dMiB", size>>20), func(b *testing.B) {
			srv, err := NewServer(DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			img := workload.Random(9, size)
			c := startSession(b, srv)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := c.BackupBytes(fmt.Sprintf("i%d", n), img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIngestChunkers is the Rabin-vs-FastCDC number on the
// trajectory: one session streaming 4 MB images through the full
// service path (frames, chunking pipeline, batched dedup, durable-less
// store), per negotiated engine. The chunking engine is the only
// variable.
func BenchmarkIngestChunkers(b *testing.B) {
	const imageSize = 4 << 20
	for _, tc := range []struct {
		name string
		spec chunk.Spec
	}{
		{"rabin", chunk.Spec{}}, // zero spec: skip negotiation, server default
		{"fastcdc", chunk.FastCDCSpec(4 << 10)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			srv, err := NewServer(testConfig(16))
			if err != nil {
				b.Fatal(err)
			}
			c := startSession(b, srv)
			if tc.spec.Algo != 0 {
				if _, err := c.Negotiate(tc.spec); err != nil {
					b.Fatal(err)
				}
			}
			img := workload.Random(77, imageSize)
			b.SetBytes(imageSize)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := c.BackupBytes(fmt.Sprintf("i%d", n), img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
