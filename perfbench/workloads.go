package main

import (
	"fmt"
	"math"
)

// A run's work is fixed by the seed and --seconds: --seconds picks how
// many streams, nights or rounds the timed phase runs (sized so that
// phase takes about that long on a 2-vCPU box), so two commits always
// measure identical inputs and every count repeats exactly per seed.

// minStreams keeps ≥10 samples above the p90 of backup latency.
const minStreams = 100

// plan sizes one run of a workload.
type plan struct {
	size     int // bytes per stream: raw stream, VM image, or backup-set file
	streams  int // raw_fresh: streams per session per epoch; retention: files per generation
	epochs   int // raw_fresh epochs, dedup_nightly nights, retention rounds
	restores int // raw_fresh and dedup_nightly: streams restored, spread over the epochs
	gcRounds int // raw_fresh and dedup_nightly: expiry rounds after ingest
}

// workload is one benchmark workload.
type workload struct {
	name      string
	sessions  int
	dedupWire bool
	plan      func(seconds int) plan
	run       func(h *harness, p plan) error
}

var workloads = []workload{
	{name: "raw_fresh", sessions: 2, dedupWire: false, plan: rawPlan, run: runRawFresh},
	{name: "dedup_nightly", sessions: 2, dedupWire: true, plan: nightlyPlan, run: runDedupNightly},
	{name: "retention", sessions: 1, dedupWire: true, plan: retentionPlan, run: runRetention},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled returns ceil(perSecond*seconds), at least floor.
func scaled(seconds int, perSecond float64, floor int) int {
	return max(floor, int(math.Ceil(perSecond*float64(seconds))))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// restoreDuring restores, after epoch e, a seeded pick of the streams
// that epoch backed up, so that p.restores restores spread evenly over
// the run: a restore measured in one burst at the end would see only
// one slice of the machine's time-varying speed.
func (h *harness) restoreDuring(e int, p plan, from []input, done *int) {
	pick := rng(key(h.seed, tagRestore, uint64(e))).Perm(len(from))
	for i := 0; *done < p.restores*(e+1)/p.epochs && i < len(pick); i++ {
		h.restore(0, from[pick[i]])
		*done++
	}
}

// raw_fresh: two sessions back up never-seen random streams over the
// raw (server-chunked) protocol, in epochs of a few streams per
// session; the inputs of an epoch are generated before it starts.
func rawPlan(seconds int) plan {
	const perEpoch = 4
	epochs := scaled(seconds, 5.5, ceilDiv(minStreams, 2*perEpoch))
	return plan{size: 2 << 20, streams: perEpoch, epochs: epochs, restores: 2 * epochs, gcRounds: 16}
}

func runRawFresh(h *harness, p plan) error {
	if err := h.setup(func() {}); err != nil {
		return err
	}
	bufs := make([][][]byte, h.sessions)
	for s := range bufs {
		for i := 0; i < p.streams; i++ {
			bufs[s] = append(bufs[s], make([]byte, p.size))
		}
	}
	var order []string // every stream, in generation order
	restored := 0
	h.startMeasuring()
	for e := 0; e < p.epochs; e++ {
		work := make([][]input, h.sessions)
		var all []input
		for s := range work {
			for i, b := range bufs[s] {
				idx := e*p.streams + i
				rawStream(b, h.seed, s, idx)
				in := newInput(fmt.Sprintf("raw-s%d-%05d", s, idx), b)
				work[s] = append(work[s], in)
				all = append(all, in)
				order = append(order, in.name)
			}
		}
		h.epoch(work)
		h.restoreDuring(e, p, all, &restored)
	}
	h.endIngest()
	// Expire the oldest quarter of the streams over the GC rounds.
	per := max(1, len(order)/4/p.gcRounds)
	for r := 0; r < p.gcRounds; r++ {
		h.gcRound(order[r*per : (r+1)*per])
	}
	return nil
}

// dedup_nightly: a golden image, then one VM lineage per session backed
// up nightly over the dedup wire. Each night churns 2% of the 64 KiB
// segments per VM, chained from that VM's previous snapshot, and lands
// a shared 0.5% patch in both VMs.
const (
	nightlySeg   = 64 << 10
	nightlyChurn = 0.02
	nightlyPatch = 0.005
)

func nightlyPlan(seconds int) plan {
	epochs := scaled(seconds, 4.5, ceilDiv(minStreams, 2))
	return plan{size: 32 << 20, epochs: epochs, restores: epochs / 2, gcRounds: 16}
}

func runDedupNightly(h *harness, p plan) error {
	gen := newNightly(h.seed, p.size, nightlySeg, h.sessions, nightlyChurn, nightlyPatch)
	golden := newInput("golden", gen.golden)
	if err := h.setup(func() { h.backup(0, golden) }); err != nil {
		return err
	}
	restored := 0
	h.startMeasuring()
	for n := 1; n <= p.epochs; n++ {
		snaps := gen.advance(n)
		work := make([][]input, len(snaps))
		var all []input
		for v, b := range snaps {
			in := newInput(nightName(v, n), b)
			work[v] = []input{in}
			all = append(all, in)
		}
		h.epoch(work)
		h.restoreDuring(n-1, p, all, &restored)
	}
	h.endIngest()
	// Expire the oldest nights.
	for n := 1; n <= min(p.gcRounds, p.epochs); n++ {
		var names []string
		for v := 0; v < h.sessions; v++ {
			names = append(names, nightName(v, n))
		}
		h.gcRound(names)
	}
	return nil
}

func nightName(vm, night int) string { return fmt.Sprintf("vm%d-night-%04d", vm, night) }

// retention: one session ingests rolling generations of a backup set
// with 30% chained churn over the dedup wire. Each round restores the
// oldest live generation in full, deletes it once more than retainGens
// are live, and compacts.
const (
	retSeg     = 64 << 10
	retChurn   = 0.30
	retainGens = 3
)

func retentionPlan(seconds int) plan {
	const files = 8
	return plan{
		size:    8 << 20,
		streams: files,
		epochs:  scaled(seconds, 1.1, ceilDiv(minStreams, files)),
	}
}

func runRetention(h *harness, p plan) error {
	gen := newGenerations(h.seed, p.streams, p.size, retSeg, retChurn)
	generation := func(g int) []input {
		var ins []input
		for f, b := range gen.files {
			ins = append(ins, newInput(genName(g, f), b))
		}
		return ins
	}
	gen0 := generation(0)
	if err := h.setup(func() {
		for _, in := range gen0 {
			h.backup(0, in)
		}
	}); err != nil {
		return err
	}
	liveGens := [][]input{gen0}
	restored := make(map[string]bool)
	h.startMeasuring()
	for g := 1; g <= p.epochs; g++ {
		gen.advance(g)
		ins := generation(g)
		h.epoch([][]input{ins})
		liveGens = append(liveGens, ins)
		for _, in := range liveGens[0] {
			h.restore(0, in)
			restored[in.name] = true
		}
		var expire []string
		if len(liveGens) > retainGens {
			for _, in := range liveGens[0] {
				expire = append(expire, in.name)
			}
			liveGens = liveGens[1:]
		}
		h.gcRound(expire)
	}
	h.endIngest()
	// Every stream is restored at least once.
	for _, ins := range liveGens {
		for _, in := range ins {
			if !restored[in.name] {
				h.restore(0, in)
			}
		}
	}
	return nil
}

func genName(g, f int) string { return fmt.Sprintf("gen-%04d-file-%02d", g, f) }
