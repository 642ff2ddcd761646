// Command perfbench is the repository's benchmark: one backup-service
// workload per run against an in-process ingest.Server on a durable
// persist store, driven over loopback TCP from the same process. It
// verifies every output and prints each end-to-end metric (or, with
// --trace 1, each per-layer metric) by name with its unit; the last
// line of standard output is one JSON object with the results.
//
//	go build -o perfbench . && ./perfbench --workload raw_fresh --seed 1 --seconds 12 --trace 0
//
// Workloads, metrics and their meaning are documented in
// BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	name := flag.String("workload", "", "workload: raw_fresh, dedup_nightly or retention")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 12, "sizes the timed phase's work (about this many seconds on a 2-vCPU box)")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's store data dirs")
	flag.Parse()
	wl, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(wl, wl.plan(*seconds), *seed, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind a percentile or median (0: not a sampled value)
}

// result is what one invocation reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	problems  []string
	extra     map[string]metric // printed for people, not part of the JSON line
}

func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics)+len(r.extra))
	all := make(map[string]metric)
	for k, m := range r.Metrics {
		all[k] = m
		names = append(names, k)
	}
	for k, m := range r.extra {
		all[k] = m
		names = append(names, k)
	}
	sort.Strings(names)
	for _, p := range r.problems {
		fmt.Fprintf(w, "INCORRECT: %s\n", p)
	}
	for _, k := range names {
		m := all[k]
		if m.n > 0 {
			fmt.Fprintf(w, "%-32s %14.6g %-6s (n=%d)\n", k, m.Value, m.Unit, m.n)
		} else {
			fmt.Fprintf(w, "%-32s %14.6g %s\n", k, m.Value, m.Unit)
		}
	}
	line, _ := json.Marshal(r)
	fmt.Fprintf(w, "%s\n", line)
}

// run runs one workload. A traced invocation first runs the workload
// untraced on its own store, for the tracing overhead, then traced.
func run(wl workload, p plan, seed int64, traced bool, workdir string) (*result, error) {
	root, err := filepath.Abs(filepath.Join(workdir, fmt.Sprintf("run-%s-%d", wl.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer func() { _ = removeSynced(root) }()
	plain, err := runOnce(wl, p, seed, false, filepath.Join(root, "plain"))
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: plain.attempted, Failed: plain.failed, problems: plain.problems}
	if !traced {
		res.Metrics, res.extra = plain.endToEnd()
	} else {
		tr, err := runOnce(wl, p, seed, true, filepath.Join(root, "traced"))
		if err != nil {
			return nil, err
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		res.problems = append(res.problems, tr.problems...)
		res.Metrics = tr.perLayer(plain)
	}
	res.Correct = len(res.problems) == 0
	return res, nil
}

func runOnce(wl workload, p plan, seed int64, traced bool, root string) (*harness, error) {
	h := newHarness(root, seed, traced, wl.dedupWire, wl.sessions)
	err := wl.run(h, p)
	if err == nil {
		err = h.finish()
	}
	if err != nil {
		_ = h.teardown()
		return nil, err
	}
	return h, removeSynced(root)
}

// quantile returns the nearest-rank q-quantile of xs (median: the mean
// of the two middle values for an even count).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 {
		m := len(s) / 2
		if len(s)%2 == 0 {
			return (s[m-1] + s[m]) / 2
		}
		return s[m]
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the end-to-end metrics of an untraced run.
func (h *harness) endToEnd() (map[string]metric, map[string]metric) {
	mb := func(b int64, s float64) float64 { return ratio(float64(b)/1e6, s) }
	m := map[string]metric{
		"setup_s":           {Value: quantile(h.setupS, 0.5), Unit: "s", n: len(h.setupS)},
		"ingest_MBps":       {Value: mb(h.ingestB, h.ingestDur.Seconds()), Unit: "MB/s"},
		"backup_s_p50":      {Value: quantile(h.backupLat, 0.5), Unit: "s", n: len(h.backupLat)},
		"backup_s_p90":      {Value: quantile(h.backupLat, 0.9), Unit: "s", n: len(h.backupLat)},
		"wire_B_per_B":      {Value: ratio(float64(h.wireB), float64(h.logicalB)), Unit: "ratio"},
		"stored_B_per_B":    {Value: ratio(float64(h.ingested.StoredBytes), float64(h.ingested.LogicalBytes)), Unit: "ratio"},
		"restore_MBps":      {Value: mb(h.restoreB, h.restoreD.Seconds()), Unit: "MB/s"},
		"gc_s_p50":          {Value: quantile(h.gcS, 0.5), Unit: "s", n: len(h.gcS)},
		"disk_B_per_live_B": {Value: ratio(float64(h.diskB), float64(h.liveB)), Unit: "ratio"},
		"recover_s":         {Value: quantile(h.recoverS, 0.5), Unit: "s", n: len(h.recoverS)},
		"alloc_B_per_B":     {Value: ratio(float64(h.allocB), float64(h.ingestB)), Unit: "B/B"},
		"store_heap_MB":     {Value: h.heapMB, Unit: "MB"},
	}
	extra := map[string]metric{
		"fail_ratio": {Value: ratio(float64(h.failed), float64(h.attempted)), Unit: "ratio", n: h.attempted},
	}
	return m, extra
}

// perLayer computes the per-layer metrics of a traced run; plain is the
// untraced run of the same inputs, for the tracing overhead.
func (h *harness) perLayer(plain *harness) map[string]metric {
	sec := func(v float64) metric { return metric{Value: v, Unit: "s"} }
	dsec := func(ns int64) metric { return sec(float64(ns) / 1e9) }
	bytes := func(v int64) metric { return metric{Value: float64(v), Unit: "B"} }
	count := func(v float64) metric { return metric{Value: v, Unit: "count"} }
	rat := func(v float64) metric { return metric{Value: v, Unit: "ratio"} }
	pct := func(xs []float64, q float64) metric { return metric{Value: quantile(xs, q), Unit: "s", n: len(xs)} }
	p0, p1 := h.p0, h.p1
	reg := func(name string) float64 { return h.reg1[name] - h.reg0[name] }
	c := h.client

	// Raw streams: the server's backup span covers the stream on the
	// server; what the client waited beyond it is unattributed.
	unattributed := c.unattributed
	for name, total := range c.raw {
		if d, ok := h.spans.root("backup", name); ok {
			unattributed += total - durSeconds(d)
		}
	}
	ingestMBps := ratio(float64(h.ingestB)/1e6, h.ingestDur.Seconds())
	plainMBps := ratio(float64(plain.ingestB)/1e6, plain.ingestDur.Seconds())
	written := (p1.appendB - p0.appendB) + (p1.relocateB - p0.relocateB) +
		int64(reg("persist_group_commit_bytes_sum"))

	return map[string]metric{
		"chunk.scan_s":                   sec(c.scan.Seconds()),
		"chunk.chunks":                   count(float64(h.chunks)),
		"chunk.mean_B":                   {Value: ratio(float64(h.ingestB), float64(h.chunks)), Unit: "B"},
		"dedup.sum_s":                    sec(c.sum.Seconds()),
		"ingest.has_round_s_p50":         pct(c.has, 0.5),
		"ingest.has_round_s_p90":         pct(c.has, 0.9),
		"ingest.has_rounds":              count(float64(len(c.has))),
		"ingest.upload_s":                sec(c.upload.Seconds()),
		"ingest.upload_B":                bytes(c.uploadB),
		"ingest.commit_s_p50":            pct(c.commit, 0.5),
		"ingest.commit_s_p90":            pct(c.commit, 0.9),
		"ingest.redundant_upload_B":      bytes(c.redundantB),
		"ingest.upload_useful_ratio":     rat(ratio(float64(c.usefulB), float64(c.uploadB))),
		"ingest.restore_s_p50":           pct(h.restoreS, 0.5),
		"ingest.server_self_s":           sec(h.spans.self("backup")),
		"ingest.recv_bodies_s":           sec(h.spans.self("recv_bodies")),
		"shardstore.pin_batch_s":         sec(h.spans.self("has_batch")),
		"shardstore.put_batch_s":         sec(h.spans.self("put_batch")),
		"shardstore.shard_put_s":         sec(h.spans.self("shard_put")),
		"shardstore.recipe_commit_s":     sec(h.spans.total("commit") - h.spans.edge("commit", "fsync")),
		"shardstore.delete_s":            sec(h.deleteD.Seconds()),
		"shardstore.compact_s":           sec(h.compactD.Seconds()),
		"shardstore.compact_moved_B":     bytes(h.compact.MovedBytes),
		"shardstore.compact_reclaimed_B": bytes(h.compact.ReclaimedBytes),
		"shardstore.unique_chunks":       count(float64(h.ingested.UniqueChunks)),
		"shardstore.recipe_refs":         count(float64(h.recipeRef)),
		"shardstore.dup_hit_ratio":       rat(ratio(float64(h.ingested.IndexHits), float64(h.ingested.Chunks))),
		"persist.append_s":               dsec(p1.appendNs - p0.appendNs),
		"persist.append_B":               bytes(p1.appendB - p0.appendB),
		"persist.refdeltas":              count(float64(p1.refDeltas - p0.refDeltas)),
		"persist.shard_commit_s":         dsec(p1.commitNs - p0.commitNs),
		"persist.barrier_s_p50":          pct(h.tb.barrierSamples(), 0.5),
		"persist.barrier_s_p90":          pct(h.tb.barrierSamples(), 0.9),
		"persist.fsyncs":                 count(reg("persist_fsyncs_total")),
		"persist.sessions_per_fsync":     rat(ratio(reg("persist_group_commit_waiters_sum"), reg("persist_group_commit_rounds_total"))),
		"persist.read_s":                 dsec(p1.readNs - p0.readNs),
		"persist.read_B":                 bytes(p1.readB - p0.readB),
		"persist.relocate_B":             bytes(p1.relocateB - p0.relocateB),
		"persist.checkpoint_s":           dsec(p1.checkpointNs - p0.checkpointNs),
		"persist.write_B_per_B":          rat(ratio(float64(written), float64(h.ingestB))),
		"persist.recover_MBps":           {Value: ratio(float64(h.diskB)/1e6, quantile(h.recoverS, 0.5)), Unit: "MB/s"},
		"trace.stream_s":                 sec(c.stream.Seconds()),
		"trace.unattributed_s":           sec(unattributed.Seconds()),
		"trace.dropped_spans":            count(float64(h.spans.droppedSpans())),
		"trace.overhead":                 rat(ratio(plainMBps, ingestMBps)),
	}
}
