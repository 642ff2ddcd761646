package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
	"shredder/internal/ingest"
	"shredder/internal/obs"
	"shredder/internal/persist"
	"shredder/internal/shardstore"
)

// The fixed set-up every workload shares: shredderd's defaults.
const (
	commitWindow = 2 * time.Millisecond // shredderd -commit-window
	gcThreshold  = 0.5                  // shredderd -gc-threshold
	setupReps    = 5                    // set-ups per run; setup_s is their median
	recoverReps  = 21                   // reopens per run; recover_s is their median
	verifySample = 8                    // streams re-verified after the final reopen
)

// chunkSpec is what every session negotiates: FastCDC, 8 KiB average,
// 2 KiB min, 32 KiB max.
var chunkSpec = chunk.FastCDCSpec(8 << 10)

func storeOptions(reg *obs.Registry) persist.Options {
	return persist.Options{
		Shards:       ingest.DefaultConfig().Shards,
		Fsync:        persist.FsyncPolicy{Mode: persist.FsyncAlways},
		CommitWindow: commitWindow,
		Obs:          reg,
	}
}

// harness is one run of one workload: an in-process ingest.Server on a
// durable store in a fresh directory, driven over loopback TCP by this
// process, with everything the run measures.
type harness struct {
	seed      int64
	root      string // directory the run's data dirs live under
	dir       string // current store data dir
	traced    bool
	dedupWire bool
	sessions  int

	reg    *obs.Registry
	tracer *obs.Tracer
	spans  *spanRollup   // traced runs only
	tb     *timedBacking // traced runs only
	store  *shardstore.Store
	srv    *ingest.Server
	ln     net.Listener
	served chan struct{}
	sess   []*ingest.Session
	admin  *ingest.Session // v3 session for deletes (raw sessions cannot delete)
	eng    chunk.Engine    // the negotiated engine, for the traced dedup loop

	mu       sync.Mutex
	timing   bool             // inside the measured part of the run
	live     map[string]input // acked and not deleted, data stripped
	problems []string         // correctness failures

	attempted, failed int

	setupS    []float64
	ingestB   int64
	ingestDur time.Duration
	allocB    uint64
	backupLat []float64
	wireB     int64
	logicalB  int64
	chunks    int64
	restoreB  int64
	restoreD  time.Duration
	restoreS  []float64
	gcS       []float64
	deleteD   time.Duration
	compactD  time.Duration
	compact   shardstore.CompactStats
	ingested  dedup.Stats // store stats when the timed ingest ended
	recipeRef int64
	diskB     int64
	liveB     int64
	recoverS  []float64
	heapMB    float64

	// Traced runs: client-side layer times and the counters at the
	// start of the measured part.
	client     clientAgg
	p0         persistCounters
	p1         persistCounters
	reg0, reg1 map[string]float64
}

// clientAgg sums clientTimes over the measured streams.
type clientAgg struct {
	scan, sum, upload time.Duration
	uploadB           int64
	redundantB        int64
	usefulB           int64
	has               []float64
	commit            []float64
	stream            time.Duration
	unattributed      time.Duration
	raw               map[string]time.Duration // raw stream → client time
}

func newHarness(root string, seed int64, traced, dedupWire bool, sessions int) *harness {
	h := &harness{seed: seed, root: root, traced: traced, dedupWire: dedupWire, sessions: sessions}
	h.client.raw = make(map[string]time.Duration)
	return h
}

// boot opens a fresh store in dir and serves it on loopback with the
// harness's sessions connected and negotiated.
func (h *harness) boot(dir string) error {
	h.dir = dir
	h.live = make(map[string]input)
	h.reg = obs.NewRegistry()
	if h.traced {
		if h.spans == nil {
			h.spans = newSpanRollup()
		}
		h.tracer = obs.NewTracer(obs.TracerConfig{
			SlowThreshold:    time.Nanosecond,
			OnSlow:           h.spans.onRoot,
			MaxSpansPerTrace: 1 << 20,
		})
		b, err := persist.Open(dir, storeOptions(h.reg))
		if err != nil {
			return err
		}
		h.tb = newTimedBacking(b)
		if h.store, err = shardstore.Open(h.tb); err != nil {
			_ = b.Close()
			return err
		}
	} else {
		// shredderd's tracer: on, bounded, no slow capture.
		h.tracer = obs.NewTracer(obs.TracerConfig{})
		var err error
		if h.store, err = persist.OpenStore(dir, storeOptions(h.reg)); err != nil {
			return err
		}
	}
	cfg := ingest.DefaultConfig()
	cfg.Obs = h.reg
	cfg.Tracer = h.tracer
	srv, err := ingest.NewServerWithStore(cfg, h.store)
	if err != nil {
		return err
	}
	h.srv = srv
	if h.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	h.served = make(chan struct{})
	go func() {
		defer close(h.served)
		_ = srv.Serve(h.ln)
	}()
	h.sess = nil
	for i := 0; i < h.sessions; i++ {
		s, err := ingest.Dial(h.ln.Addr().String())
		if err != nil {
			return err
		}
		h.sess = append(h.sess, s)
		var accepted chunk.Spec
		if h.dedupWire {
			accepted, err = s.NegotiateDedup(chunkSpec)
		} else {
			accepted, err = s.Negotiate(chunkSpec)
		}
		if err != nil {
			return err
		}
		if h.eng, err = chunk.New(accepted); err != nil {
			return err
		}
	}
	if h.admin, err = ingest.Dial(h.ln.Addr().String()); err != nil {
		return err
	}
	_, err = h.admin.NegotiateDedup(chunkSpec)
	return err
}

// teardown closes the sessions, drains the server and closes the store.
func (h *harness) teardown() error {
	if h.store == nil {
		return nil
	}
	for _, s := range h.sess {
		_ = s.Close()
	}
	h.sess = nil
	if h.admin != nil {
		_ = h.admin.Close()
		h.admin = nil
	}
	if h.ln != nil {
		_ = h.ln.Close()
		h.srv.Shutdown(5 * time.Second)
		<-h.served
		h.ln = nil
	}
	err := h.store.Close()
	h.store = nil
	return err
}

// setup runs the workload's set-up setupReps times, each on a fresh
// directory (store open, server boot, negotiation and fn), and keeps
// the last one running.
func (h *harness) setup(fn func()) error {
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			if err := h.teardown(); err != nil {
				return err
			}
			if err := removeSynced(h.dir); err != nil {
				return err
			}
		}
		dir := filepath.Join(h.root, fmt.Sprintf("store-%d", rep))
		debug.FreeOSMemory() // every rep starts from the same heap state
		t0 := time.Now()
		if err := h.boot(dir); err != nil {
			return err
		}
		fn()
		h.setupS = append(h.setupS, time.Since(t0).Seconds())
	}
	return nil
}

// startMeasuring opens the measured part of the run.
func (h *harness) startMeasuring() {
	h.timing = true
	if h.traced {
		h.spans.on.Store(true)
		h.tb.startRecording()
		h.p0 = h.tb.snapshot()
		h.reg0 = registryValues(h.reg)
	}
}

// endIngest records the store's statistics at the end of the timed
// ingest phase.
func (h *harness) endIngest() {
	h.ingested = h.store.Stats()
}

func (h *harness) problem(format string, args ...any) {
	h.mu.Lock()
	h.problems = append(h.problems, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

// epoch backs up work[s] on session s, all sessions at once, each in a
// closed loop; the wall time and heap allocation count toward the
// timed ingest phase.
func (h *harness) epoch(work [][]input) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var wg sync.WaitGroup
	for s := range work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, in := range work[s] {
				h.backup(s, in)
			}
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	h.ingestDur += d
	h.allocB += m1.TotalAlloc - m0.TotalAlloc
}

// backup backs up one stream on session s and records the outcome.
func (h *harness) backup(s int, in input) {
	var (
		st  *ingest.StreamStats
		ct  clientTimes
		err error
	)
	t0 := time.Now()
	switch {
	case h.traced && h.dedupWire:
		sp := h.tracer.StartRoot("bench.backup", obs.Str("recipe", in.name))
		st, ct, err = tracedBackupDedup(h.sess[s], h.eng, in.name, in.data, sp.Context())
		sp.End()
	case h.traced:
		sp := h.tracer.StartRoot("bench.backup", obs.Str("recipe", in.name))
		st, ct, err = tracedBackupRaw(h.sess[s], in.name, in.data)
		sp.End()
	case h.dedupWire:
		st, err = h.sess[s].BackupDedupBytes(in.name, in.data)
	default:
		st, err = h.sess[s].BackupBytes(in.name, in.data)
	}
	d := time.Since(t0)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.attempted++
	if err != nil {
		h.failed++
		fmt.Fprintf(os.Stderr, "backup %s: %v\n", in.name, err)
		return
	}
	if st.Bytes != in.size {
		h.problems = append(h.problems, fmt.Sprintf("backup %s: acked %d bytes of %d", in.name, st.Bytes, in.size))
	}
	in.data = nil
	h.live[in.name] = in
	if !h.timing {
		return
	}
	h.ingestB += st.Bytes
	h.backupLat = append(h.backupLat, d.Seconds())
	h.wireB += st.Wire.WireBytes
	h.logicalB += st.Wire.LogicalBytes
	h.chunks += st.Chunks
	if !h.traced {
		return
	}
	c := &h.client
	c.stream += ct.total
	c.commit = append(c.commit, ct.commit.Seconds())
	if h.dedupWire {
		c.scan += ct.scan
		c.sum += ct.sum
		c.upload += ct.upload
		c.uploadB += ct.uploadB
		c.usefulB += st.UniqueBytes
		c.redundantB += ct.uploadB - st.UniqueBytes
		for _, hd := range ct.has {
			c.has = append(c.has, hd.Seconds())
		}
		c.unattributed += ct.total - ct.accounted
	} else {
		c.raw[in.name] = ct.total
	}
}

// restore restores one stream on session s and checks it byte-exactly
// (length and SHA-256) against what was backed up.
func (h *harness) restore(s int, in input) {
	w := newDigestWriter()
	sp := h.tracer.StartRoot("bench.restore", obs.Str("recipe", in.name))
	t0 := time.Now()
	n, err := h.sess[s].Restore(in.name, w)
	d := time.Since(t0)
	sp.End()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.attempted++
	if err != nil {
		h.failed++
		fmt.Fprintf(os.Stderr, "restore %s: %v\n", in.name, err)
		return
	}
	if err := w.check(in); err != nil {
		h.problems = append(h.problems, err.Error())
	}
	if h.timing {
		h.restoreB += n
		h.restoreD += d
		h.restoreS = append(h.restoreS, d.Seconds())
	}
}

// gcRound deletes the named streams on the admin session, then compacts the
// store the way shredderd's GC loop does; the round's wall time is one
// gc_s sample.
func (h *harness) gcRound(names []string) {
	t0 := time.Now()
	for _, name := range names {
		sp := h.tracer.StartRoot("bench.delete", obs.Str("recipe", name))
		d0 := time.Now()
		_, err := h.admin.Delete(name)
		h.deleteD += time.Since(d0)
		sp.End()
		h.attempted++
		if err != nil {
			h.failed++
			fmt.Fprintf(os.Stderr, "delete %s: %v\n", name, err)
			continue
		}
		delete(h.live, name)
	}
	sp := h.tracer.StartRoot("gc", obs.Float("threshold", gcThreshold))
	c0 := time.Now()
	cs, err := h.store.CompactTraced(gcThreshold, sp)
	h.compactD += time.Since(c0)
	sp.End()
	h.attempted++
	if err != nil {
		h.failed++
		fmt.Fprintf(os.Stderr, "compact: %v\n", err)
	}
	h.compact.Containers += cs.Containers
	h.compact.MovedBytes += cs.MovedBytes
	h.compact.ReclaimedBytes += cs.ReclaimedBytes
	h.gcS = append(h.gcS, time.Since(t0).Seconds())
}

// liveNames returns the acked, undeleted stream names, sorted.
func (h *harness) liveNames() []string {
	names := make([]string, 0, len(h.live))
	for n := range h.live {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sample returns up to n live streams chosen by the seed.
func (h *harness) sample(n int) []input {
	names := h.liveNames()
	r := rng(key(h.seed, tagSample))
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	names = names[:min(n, len(names))]
	sort.Strings(names)
	out := make([]input, len(names))
	for i, n := range names {
		out[i] = h.live[n]
	}
	return out
}

// checkStore verifies that st holds exactly the live recipes and that
// its statistics add up to them: every live reference is one recipe
// entry, so the logical bytes are the live streams' sizes.
func (h *harness) checkStore(st *shardstore.Store, when string) (refs int64) {
	names := st.RecipeNames()
	if want := h.liveNames(); !slices.Equal(names, want) {
		h.problem("%s: store holds %d recipes, %d acked and live", when, len(names), len(want))
	}
	var logical int64
	for _, n := range names {
		r, _ := st.Recipe(n)
		refs += int64(len(r))
		logical += h.live[n].size
	}
	stats := st.Stats()
	if stats.LogicalBytes != logical || stats.Chunks != refs {
		h.problem("%s: store stats %+v disagree with %d live bytes in %d recipe entries", when, stats, logical, refs)
	}
	return refs
}

// finish ends a run: it checks the store against what was acked, shuts
// the server down, measures the data dir, reopens the store (timing
// recovery), re-checks recipes, stats and a sample of streams, and
// measures the reopened store's heap.
func (h *harness) finish() error {
	if h.traced {
		h.p1 = h.tb.snapshot()
		h.reg1 = registryValues(h.reg)
		h.spans.on.Store(false)
	}
	before := h.store.Stats()
	h.recipeRef = h.checkStore(h.store, "before close")
	h.liveB = before.StoredBytes
	sample := h.sample(verifySample)
	if err := h.teardown(); err != nil {
		return err
	}
	var err error
	if h.diskB, err = diskUsage(h.dir); err != nil {
		return err
	}
	syscall.Sync() // settle the filesystem before timing recovery (see removeSynced)
	var st *shardstore.Store
	for rep := 0; rep < recoverReps; rep++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		st, err = persist.OpenStore(h.dir, storeOptions(obs.NewRegistry()))
		if err != nil {
			return err
		}
		h.recoverS = append(h.recoverS, time.Since(t0).Seconds())
		if rep < recoverReps-1 {
			if err := st.Close(); err != nil {
				return err
			}
		}
	}
	if got := st.Stats(); got != before {
		h.problem("after reopen: stats %+v, before close %+v", got, before)
	}
	h.checkStore(st, "after reopen")
	for _, in := range sample {
		if err := reconstruct(st, in); err != nil {
			h.problem("after reopen: %v", err)
		}
	}
	runtime.GC()
	runtime.GC()
	var held, dropped runtime.MemStats
	runtime.ReadMemStats(&held)
	if err := st.Close(); err != nil {
		return err
	}
	st = nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&dropped)
	h.heapMB = (float64(held.HeapAlloc) - float64(dropped.HeapAlloc)) / 1e6
	return nil
}

// reconstruct restores a stream straight from a store and checks it.
func reconstruct(st *shardstore.Store, in input) error {
	r, ok := st.Recipe(in.name)
	if !ok {
		return fmt.Errorf("%s: recipe missing", in.name)
	}
	w := newDigestWriter()
	for i, hs := range r {
		b, ok, err := st.GetByHash(hs)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%s entry %d: chunk missing", in.name, i)
		}
		_, _ = w.Write(b)
	}
	return w.check(in)
}

// removeSynced deletes dir and waits until the filesystem has committed
// the deletion. ext4 mounted with discard trims freed blocks when it
// commits its journal; left to the background, that work lands on the
// fsyncs of whatever is measured next.
func removeSynced(dir string) error {
	err := os.RemoveAll(dir)
	syscall.Sync()
	return err
}

// diskUsage sums the sizes of the regular files under dir.
func diskUsage(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// registryValues reads every numeric series of the registry, summing
// each family's label sets under the family name.
func registryValues(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return nil
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		return nil
	}
	out := make(map[string]float64)
	for k, v := range raw {
		f, ok := v.(float64)
		if !ok {
			continue
		}
		if i := strings.IndexByte(k, '{'); i >= 0 {
			if strings.HasSuffix(k[:i], "_bucket") {
				continue
			}
			k = k[:i]
		}
		out[k] += f
	}
	return out
}
