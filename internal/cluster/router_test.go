package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/ingest"
	"shredder/internal/obs"
	"shredder/internal/shardstore"
	"shredder/internal/workload"
)

// startRouter boots a Router over tc on a loopback listener and
// returns its address.
func startRouter(t *testing.T, c *Cluster) string {
	t.Helper()
	r := NewRouter(c, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	t.Cleanup(func() {
		ln.Close()
		r.Shutdown(2 * time.Second)
	})
	return ln.Addr().String()
}

// TestRouterDedupClientRoundTrip drives an ordinary dedup-protocol
// client against the router: the client neither knows nor negotiates
// anything cluster-specific, yet its stream lands sharded across three
// nodes and comes back byte-identical.
func TestRouterDedupClientRoundTrip(t *testing.T) {
	tc := startNodes(t, 3)
	reg := obs.NewRegistry()
	c, err := New(Config{
		Topology: tc.topo,
		Spec:     DefaultSpec(),
		Obs:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	addr := startRouter(t, c)

	sess, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	spec := chunk.FastCDCSpec(8 << 10)
	if _, err := sess.NegotiateDedup(spec); err != nil {
		t.Fatal(err)
	}

	im := workload.NewImage(17, 1<<20, 64<<10, 0.5)
	snap := im.Snapshot(18)
	if _, err := sess.BackupDedupBytes("master", im.Master); err != nil {
		t.Fatal(err)
	}
	st, err := sess.BackupDedupBytes("snap", snap)
	if err != nil {
		t.Fatal(err)
	}
	if st.Wire.ChunksSkipped == 0 {
		t.Fatal("no chunks deduped across the router — snapshot shares nothing")
	}
	if err := sess.Verify("master", im.Master); err != nil {
		t.Fatal(err)
	}
	if err := sess.Verify("snap", snap); err != nil {
		t.Fatal(err)
	}

	// The chunks must actually be sharded: more than one node holds data.
	populated := 0
	for _, srv := range tc.srvs {
		if len(srv.Store().RecipeNames()) > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("only %d node(s) hold data — routing is not sharding", populated)
	}

	// Delete through the router; unknown names are typed on the client
	// and the session survives both.
	if _, err := sess.Delete("master"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Delete("master"); !errors.Is(err, ingest.ErrNotFound) {
		t.Fatalf("re-delete through router: %v", err)
	}
	var nf *ingest.NotFoundError
	if _, err := sess.RestoreBytes("master"); !errors.As(err, &nf) || nf.Name != "master" {
		t.Fatalf("restore of deleted name through router: %v", err)
	}
	if err := sess.Verify("snap", snap); err != nil {
		t.Fatalf("session did not survive application errors: %v", err)
	}

	// Per-node metrics exist and saw traffic.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	for _, want := range []string{
		`cluster_node_up{node="n0"} 1`,
		"cluster_routed_frames_total",
		`cluster_node_tx_bytes_total{node="`,
		`cluster_streams_total{op="restore"}`,
	} {
		if !strings.Contains(scrape, want) {
			t.Fatalf("scrape is missing %q:\n%s", want, scrape)
		}
	}
}

// TestRouterLegacyRawClient: a v1-style client (no Hello at all) backs
// up through the router — the router chunks the stream itself with the
// cluster spec and shards it.
func TestRouterLegacyRawClient(t *testing.T) {
	tc := startNodes(t, 3)
	c := newTestCluster(t, tc, DefaultSpec())
	addr := startRouter(t, c)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sess := ingest.NewSession(conn)
	defer sess.Close()
	data := workload.Random(23, 768<<10)
	st, err := sess.BackupBytes("legacy", data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != int64(len(data)) {
		t.Fatalf("stats say %d bytes, sent %d", st.Bytes, len(data))
	}
	if err := sess.Verify("legacy", data); err != nil {
		t.Fatal(err)
	}
}

// TestRouterNegotiatedRawClient: a v2-negotiated raw session picks its
// own (bounded) spec and the router honors it.
func TestRouterNegotiatedRawClient(t *testing.T) {
	tc := startNodes(t, 3)
	c := newTestCluster(t, tc, DefaultSpec())
	addr := startRouter(t, c)

	sess, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	spec := chunk.FastCDCSpec(4 << 10)
	got, err := sess.Negotiate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algo != spec.Algo || got.MaxSize != spec.MaxSize {
		t.Fatalf("negotiated %+v, asked %+v", got, spec)
	}
	data := workload.Text(29, 512<<10)
	if _, err := sess.BackupBytes("text", data); err != nil {
		t.Fatal(err)
	}
	if err := sess.Verify("text", data); err != nil {
		t.Fatal(err)
	}
}

// TestRouterRejectsUnboundedSpec: specs without a max chunk size are
// fine on a single node but break routed restores, so the router must
// refuse them at negotiation with a clear reason.
func TestRouterRejectsUnboundedSpec(t *testing.T) {
	tc := startNodes(t, 1)
	c := newTestCluster(t, tc, DefaultSpec())
	addr := startRouter(t, c)

	sess, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	_, err = sess.Negotiate(chunk.DefaultSpec()) // MaxSize 0: unbounded
	if err == nil {
		t.Fatal("router accepted an unbounded chunk spec")
	}
	if !strings.Contains(err.Error(), "max chunk size") {
		t.Fatalf("rejection does not explain the bound: %v", err)
	}
}

// TestRouterReservedNameRejected: the manifest namespace is fenced off
// at the router's edge too.
func TestRouterReservedNameRejected(t *testing.T) {
	tc := startNodes(t, 1)
	c := newTestCluster(t, tc, DefaultSpec())
	addr := startRouter(t, c)

	sess, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.NegotiateDedup(chunk.FastCDCSpec(8 << 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.BackupDedupBytes(ManifestName("x"), []byte("nope")); err == nil {
		t.Fatal("router accepted a backup into the reserved namespace")
	}
}

// TestRouterConcurrentDedupNoClaimStall releases four dedup clients
// through a barrier onto the same new image via the router, the routed
// "every VM backs up at 02:00" case. Each client round fans out to
// both nodes and its bodies only follow once every node answered, so a
// node-side wait on another stream's in-flight upload could close a
// cycle across the nodes that no single store sees, stalling each such
// batch for shardstore.MaxClaimWait. Routed sub-streams must therefore
// never wait: no node may count a claim wait (let alone one that ran
// out). The wall-time bound is the coarse check, loose enough for a
// loaded machine.
func TestRouterConcurrentDedupNoClaimStall(t *testing.T) {
	const clients = 4
	tc := startNodes(t, 2)
	c := newTestCluster(t, tc, DefaultSpec())
	addr := startRouter(t, c)
	spec := chunk.FastCDCSpec(8 << 10)
	img := workload.NewImage(97, 16<<20, 64<<10, 0).Master

	sessions := make([]*ingest.Session, clients)
	for i := range sessions {
		sess, err := ingest.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if _, err := sess.NegotiateDedup(spec); err != nil {
			t.Fatal(err)
		}
		sessions[i] = sess
	}
	start := make(chan struct{})
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i, sess := range sessions {
		wg.Add(1)
		go func(i int, sess *ingest.Session) {
			defer wg.Done()
			<-start
			_, errs[i] = sess.BackupDedupBytes(fmt.Sprintf("vm-%d", i), img)
		}(i, sess)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(t0)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if err := sessions[i].Verify(fmt.Sprintf("vm-%d", i), img); err != nil {
			t.Fatal(err)
		}
	}
	for i, reg := range tc.regs {
		waits := counterValue(t, reg, "shardstore_claim_waits_total")
		timeouts := counterValue(t, reg, "shardstore_claim_wait_timeouts_total")
		if waits != 0 || timeouts != 0 {
			t.Fatalf("node %d: routed sub-streams waited %v times on claims, %v ran out", i, waits, timeouts)
		}
	}
	if limit := 4 * shardstore.MaxClaimWait; wall >= limit {
		t.Fatalf("%d routed backups of a 16 MiB image took %v, want < %v", clients, wall, limit)
	}
}

// counterValue reads one unlabelled counter from reg's scrape.
func counterValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("scrape has no %s", name)
	return 0
}
