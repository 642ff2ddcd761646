package chunk

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"strconv"
	"testing"
)

// Golden cut-point vectors: chunk boundaries are a compatibility
// surface (a recipe recorded by one build must dedup against the next),
// so every engine the service runs is pinned to fixed digests over a
// fixed input. A change that moves a single cut fails here, whichever
// path — Split, Stream at any write size, or Parallel — it went
// through.

// goldenInput is 32 MiB from SplitMix64 seeded with a fixed constant,
// written little-endian: self-contained, so the vectors do not depend
// on math/rand's stream.
func goldenInput() []byte {
	const n = 32 << 20
	out := make([]byte, n)
	x := uint64(0x5348524544444552) // "SHREDDER"
	for i := 0; i < n; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(out[i:], z^(z>>31))
	}
	return out
}

// goldenDigest is what one vector pins: the chunk count, SHA-256 over
// the little-endian uint64 chunk lengths, and SHA-256 over the
// concatenated per-chunk SHA-256s.
type goldenDigest struct {
	chunks  int
	lengths string
	content string
}

// digester accumulates a goldenDigest chunk by chunk.
type digester struct {
	n       int
	lengths hash.Hash
	content hash.Hash
}

func newDigester() *digester {
	return &digester{lengths: sha256.New(), content: sha256.New()}
}

func (d *digester) add(data []byte) {
	d.n++
	var l [8]byte
	binary.LittleEndian.PutUint64(l[:], uint64(len(data)))
	d.lengths.Write(l[:])
	sum := sha256.Sum256(data)
	d.content.Write(sum[:])
}

func (d *digester) digest() goldenDigest {
	return goldenDigest{
		chunks:  d.n,
		lengths: hex.EncodeToString(d.lengths.Sum(nil)),
		content: hex.EncodeToString(d.content.Sum(nil)),
	}
}

// splitDigest digests an engine's Split over data.
func splitDigest(e Engine, data []byte) goldenDigest {
	d := newDigester()
	for _, c := range e.Split(data) {
		d.add(data[c.Offset:c.End()])
	}
	return d.digest()
}

// streamDigest digests an engine's Stream fed data in writes of size
// feed, checking the emitted offsets tile the input.
func streamDigest(t *testing.T, e Engine, data []byte, feed int) goldenDigest {
	t.Helper()
	d := newDigester()
	var next int64
	s := e.Stream(func(c Chunk, payload []byte) error {
		if c.Offset != next || c.Length != int64(len(payload)) {
			t.Fatalf("feed %d: chunk %+v does not continue at %d with %d payload bytes",
				feed, c, next, len(payload))
		}
		next = c.End()
		d.add(payload)
		return nil
	})
	for i := 0; i < len(data); i += feed {
		end := i + feed
		if end > len(data) {
			end = len(data)
		}
		if _, err := s.Write(data[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if next != int64(len(data)) {
		t.Fatalf("feed %d: chunks cover %d of %d bytes", feed, next, len(data))
	}
	return d.digest()
}

// TestGoldenCutPoints pins the engines the service runs — the ingest
// server's default Rabin spec, the paper's Rabin default, the FastCDC
// spec clients negotiate and the shredderd -avg default — through every
// path that cuts them.
func TestGoldenCutPoints(t *testing.T) {
	ingestRabin := DefaultSpec()
	ingestRabin.MaskBits = 12
	ingestRabin.Marker = 1<<12 - 1
	ingestRabin.MinSize = 2 << 10
	ingestRabin.MaxSize = 32 << 10

	vectors := []struct {
		name string
		spec Spec
		want goldenDigest
	}{
		{"rabin-ingest", ingestRabin, goldenDigest{
			5438,
			"e4ec1e0434912152f5ce5b7d27df00bfc2c6d35929f241a19e2bdf4f4af41e74",
			"b16f58f8e85761b3b95eacaacbf0d909e497a013ebf89235c1aedbd8eeb3b5e6",
		}},
		{"rabin-default", DefaultSpec(), goldenDigest{
			4066,
			"38c38b9f3feb59b97c6927111bcf7cbc29266a41a8f31a67c0f2d6231f36dfe3",
			"9ffcab3f619c37913e8528c517a28411ad960b94a5b637d693ea500e424fe7d9",
		}},
		{"fastcdc-8k", FastCDCSpec(8 << 10), goldenDigest{
			3613,
			"0360d8ab4aaa8183f00dec1a7e07d1c97bb82804a7f7fbd86f7bdae9e49c02fb",
			"bc0cec5d278230d4e9b1f2a1694dae93a7d033b4101c60683be7322a97717ccf",
		}},
		{"fastcdc-4k", FastCDCSpec(4 << 10), goldenDigest{
			7193,
			"ece354bc45609ed57ae65df056dd3859ec210972529c15c5d49705c17e4e0496",
			"4c880150f53d1e4ed923512a9571883cf9879c9d0d1f3dd97bb6fb450f63b0a2",
		}},
	}
	data := goldenInput()
	for _, v := range vectors {
		t.Run(v.name, func(t *testing.T) {
			e, err := New(v.spec)
			if err != nil {
				t.Fatal(err)
			}
			check := func(path string, got goldenDigest) {
				t.Helper()
				if got != v.want {
					t.Errorf("%s: got %+v, want %+v", path, got, v.want)
				}
			}
			check("Split", splitDigest(e, data))
			for _, feed := range []int{1, 4093, 64 << 10} {
				check("Stream/"+strconv.Itoa(feed), streamDigest(t, e, data, feed))
			}
			for _, workers := range []int{2, 4} {
				p := NewParallel(e, workers)
				check("Parallel"+strconv.Itoa(workers)+"/Split", splitDigest(p, data))
				check("Parallel"+strconv.Itoa(workers)+"/Stream", streamDigest(t, p, data, 64<<10))
			}
		})
	}
}
