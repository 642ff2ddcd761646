package backup

import (
	"fmt"
	"net"
	"sync"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
	"shredder/internal/ingest"
	"shredder/internal/shardstore"
)

// Service runs the consolidated backup through the shredderd service
// layer instead of the in-process store: the same chunking parameters
// as Server, but matching and storage happen in a sharded
// concurrency-safe store behind the ingest protocol, so many VM
// streams can be backed up at once. Chunk boundaries are bit-identical
// to the in-process path, so the dedup accounting is too.
type Service struct {
	srv *ingest.Server
}

// NewService builds the service-path backup server with the given
// shard count (0 means the shardstore default).
func NewService(cfg Config, shards int) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	srv, err := ingest.NewServer(ingest.Config{Shards: shards, Chunking: chunk.RabinSpec(cfg.Chunking)})
	if err != nil {
		return nil, err
	}
	return &Service{srv: srv}, nil
}

// Ingest exposes the underlying ingest server (to serve real TCP
// listeners).
func (s *Service) Ingest() *ingest.Server { return s.srv }

// SiteStats mirrors Server.SiteStats for the service path.
func (s *Service) SiteStats() dedup.Stats { return s.srv.Store().Stats() }

// Dial opens one client session over an in-memory pipe. Tests and
// same-process experiments use this; production clients dial the
// shredderd daemon over TCP instead.
func (s *Service) Dial() *ingest.Session {
	cend, send := net.Pipe()
	go func() {
		defer send.Close()
		_ = s.srv.ServeConn(send)
	}()
	return ingest.NewSession(cend)
}

// DialDedup opens a session negotiated for two-phase content-addressed
// ingest (protocol version 3) with the service's own chunking spec, so
// BackupDedup cuts bit-identical boundaries to the service's raw path.
// This is the routing entry point for dedup clients: the paper's
// backup-site case, where only missing chunk bodies should cross the
// link.
func (s *Service) DialDedup() (*ingest.Session, error) {
	c := s.Dial()
	if _, err := c.NegotiateDedup(s.srv.Config().Chunking); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Expire deletes a backed-up stream through the service path: the
// recipe is durably tombstoned and its chunk references released, so
// the freed space is reclaimable by the store's compactor. This is the
// retention entry point for the consolidated backup site — each
// snapshot generation expires here when its retention window closes.
func (s *Service) Expire(name string) (shardstore.DeleteStats, error) {
	c, err := s.DialDedup()
	if err != nil {
		return shardstore.DeleteStats{}, err
	}
	defer c.Close()
	ds, err := c.Delete(name)
	if err != nil {
		return shardstore.DeleteStats{}, err
	}
	return *ds, nil
}

// Compact reclaims dead container space in the service's store:
// containers whose live fraction fell below threshold are rewritten
// and dropped.
func (s *Service) Compact(threshold float64) (shardstore.CompactStats, error) {
	return s.srv.Store().Compact(threshold)
}

// VMResult is one stream's outcome in a MultiVM run.
type VMResult struct {
	Name  string
	Stats ingest.StreamStats
}

// MultiVM runs the §7.2 consolidated multi-VM experiment through the
// service path: every image is backed up on its own concurrent client
// session and verified to restore byte-exactly. Results come back in
// input order.
func (s *Service) MultiVM(names []string, images [][]byte) ([]VMResult, error) {
	return s.multiVM(names, images, false)
}

// MultiVMDedup is MultiVM over two-phase content-addressed sessions:
// every VM stream is chunked client-side and only missing chunk bodies
// cross the (in-memory) wire, so each result's Stats.Wire shows the
// transfer the backup-site link was spared.
func (s *Service) MultiVMDedup(names []string, images [][]byte) ([]VMResult, error) {
	return s.multiVM(names, images, true)
}

func (s *Service) multiVM(names []string, images [][]byte, dedupWire bool) ([]VMResult, error) {
	if len(names) != len(images) {
		return nil, fmt.Errorf("backup: %d names for %d images", len(names), len(images))
	}
	results := make([]VMResult, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var c *ingest.Session
			var err error
			if dedupWire {
				if c, err = s.DialDedup(); err != nil {
					errs[i] = fmt.Errorf("dial dedup for %q: %w", names[i], err)
					return
				}
			} else {
				c = s.Dial()
			}
			defer c.Close()
			var st *ingest.StreamStats
			if dedupWire {
				st, err = c.BackupDedupBytes(names[i], images[i])
			} else {
				st, err = c.BackupBytes(names[i], images[i])
			}
			if err != nil {
				errs[i] = fmt.Errorf("backup %q: %w", names[i], err)
				return
			}
			if err := c.Verify(names[i], images[i]); err != nil {
				errs[i] = fmt.Errorf("verify %q: %w", names[i], err)
				return
			}
			results[i] = VMResult{Name: names[i], Stats: *st}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
