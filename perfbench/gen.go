package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand/v2"
	"slices"
)

// Every input byte is derived from the run's seed: fill expands one
// 64-bit key into a byte stream (splitmix64), and key folds a seed
// with the coordinates of the piece being generated (stream, night,
// segment, ...), so the same seed always yields the same inputs and
// distinct coordinates never share content.

// Domain tags keep the key spaces of the generators apart.
const (
	tagRaw uint64 = iota + 1
	tagGolden
	tagChurn
	tagPatch
	tagPatchPick
	tagGen
	tagGenPick
	tagSample
	tagRestore
)

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// key folds a seed and coordinates into one generator key.
func key(seed int64, parts ...uint64) uint64 {
	k := splitmix(uint64(seed))
	for _, p := range parts {
		k = splitmix(k ^ p)
	}
	return k
}

// fill overwrites b with the pseudo-random byte stream of k.
func fill(b []byte, k uint64) {
	x := k
	i := 0
	for ; i+8 <= len(b); i += 8 {
		x += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(b[i:], splitmix(x))
	}
	if i < len(b) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], splitmix(x+0x9e3779b97f4a7c15))
		copy(b[i:], tail[:])
	}
}

// rng returns a deterministic generator for choices (segment picks,
// samples) keyed like fill.
func rng(k uint64) *rand.Rand { return rand.New(rand.NewPCG(k, splitmix(k))) }

// pick returns n distinct indices in [0, total), in ascending order.
func pick(r *rand.Rand, total, n int) []int {
	out := r.Perm(total)[:n]
	slices.Sort(out)
	return out
}

// segments returns round(frac*total), at least 1 when frac > 0.
func segments(total int, frac float64) int {
	n := int(frac*float64(total) + 0.5)
	if n == 0 && frac > 0 {
		n = 1
	}
	return n
}

// input is one stream to back up with the digest it must restore to.
// data is only valid until the generator advances; size and digest
// stay valid for verifying restores later.
type input struct {
	name   string
	data   []byte
	size   int64
	digest [sha256.Size]byte
}

func newInput(name string, data []byte) input {
	return input{name: name, data: data, size: int64(len(data)), digest: sha256.Sum256(data)}
}

// rawStream fills buf with never-seen content for stream i of session s.
func rawStream(buf []byte, seed int64, s, i int) {
	fill(buf, key(seed, tagRaw, uint64(s), uint64(i)))
}

// nightly is the dedup_nightly generator: a golden image, and one VM
// lineage per session derived from it. Each night every VM churns
// churnFrac of its segments (chained from its own previous snapshot),
// then a shared patch — patchFrac of the segments, the same fresh bytes
// at the same offsets — lands in every VM.
type nightly struct {
	seed      int64
	segSize   int
	churnFrac float64
	patchFrac float64
	golden    []byte
	vms       [][]byte
	// patch lists the segments the latest night's patch overwrote.
	patch []int
}

func newNightly(seed int64, imageSize, segSize, vms int, churnFrac, patchFrac float64) *nightly {
	n := &nightly{seed: seed, segSize: segSize, churnFrac: churnFrac, patchFrac: patchFrac}
	n.golden = make([]byte, imageSize)
	fill(n.golden, key(seed, tagGolden))
	for v := 0; v < vms; v++ {
		n.vms = append(n.vms, append([]byte(nil), n.golden...))
	}
	return n
}

func (n *nightly) segCount() int { return (len(n.golden) + n.segSize - 1) / n.segSize }

func (n *nightly) seg(b []byte, s int) []byte {
	lo := s * n.segSize
	hi := min(lo+n.segSize, len(b))
	return b[lo:hi]
}

// advance turns every VM into its snapshot for night (1-based) in
// place and returns the snapshots (views of the VM buffers, valid until
// the next advance).
func (n *nightly) advance(night int) [][]byte {
	segs := n.segCount()
	for v, img := range n.vms {
		r := rng(key(n.seed, tagChurn, uint64(v), uint64(night)))
		for _, s := range pick(r, segs, segments(segs, n.churnFrac)) {
			fill(n.seg(img, s), key(n.seed, tagChurn, uint64(v), uint64(night), uint64(s)))
		}
	}
	n.patch = pick(rng(key(n.seed, tagPatchPick, uint64(night))), segs, segments(segs, n.patchFrac))
	for _, s := range n.patch {
		k := key(n.seed, tagPatch, uint64(night), uint64(s))
		for _, img := range n.vms {
			fill(n.seg(img, s), k)
		}
	}
	return n.vms
}

// generations is the retention generator: a backup set of files, each
// generation churning churnFrac of every file's segments, chained from
// the previous generation.
type generations struct {
	seed      int64
	segSize   int
	churnFrac float64
	files     [][]byte
}

func newGenerations(seed int64, files, fileSize, segSize int, churnFrac float64) *generations {
	g := &generations{seed: seed, segSize: segSize, churnFrac: churnFrac}
	for f := 0; f < files; f++ {
		b := make([]byte, fileSize)
		fill(b, key(seed, tagGen, 0, uint64(f)))
		g.files = append(g.files, b)
	}
	return g
}

// advance turns the files into generation gen (≥ 1) in place.
func (g *generations) advance(gen int) [][]byte {
	for f, b := range g.files {
		segs := (len(b) + g.segSize - 1) / g.segSize
		r := rng(key(g.seed, tagGenPick, uint64(gen), uint64(f)))
		for _, s := range pick(r, segs, segments(segs, g.churnFrac)) {
			lo := s * g.segSize
			fill(b[lo:min(lo+g.segSize, len(b))], key(g.seed, tagGen, uint64(gen), uint64(f), uint64(s)))
		}
	}
	return g.files
}
