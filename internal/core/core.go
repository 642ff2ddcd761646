// Package core implements the Shredder framework itself — the paper's
// primary contribution: a high-throughput content-based chunking
// service that offloads Rabin-fingerprint computation to a (simulated)
// GPU. The host side runs four modules, exactly as in Figure 2:
//
//	Reader   – ingests the data stream (SAN-class AIO model)
//	Transfer – DMAs buffers from host to device memory
//	Kernel   – the parallel sliding-window chunking kernel on the GPU
//	Store    – returns chunk boundaries, applies min/max limits and
//	           upcalls the application with each chunk
//
// Three operating modes reproduce the paper's evaluation points
// (Figure 12): Basic serializes everything; Streams adds double
// buffering over a pinned ring plus the 4-stage streaming pipeline
// (§4.1, §4.2); StreamsCoalesced additionally enables the memory-
// coalescing kernel (§4.3).
//
// All chunk boundaries are computed for real and are bit-identical to
// the sequential reference in package chunker; only time is simulated.
package core

import (
	"errors"
	"fmt"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/chunker"
	"shredder/internal/gpu"
	"shredder/internal/host"
	"shredder/internal/hostmem"
	"shredder/internal/pcie"
)

// Mode selects which of the paper's configurations the pipeline runs.
type Mode int

const (
	// Basic is the unoptimized workflow of §3.1: one buffer in flight,
	// pageable host memory, naive global-memory kernel, every stage
	// serialized.
	Basic Mode = iota
	// Streams enables concurrent copy/execution via double buffering on
	// a ring of pinned regions and the multi-stage streaming pipeline
	// (§4.1–§4.2), still with the naive kernel. "GPU Streams" in
	// Figure 12.
	Streams
	// StreamsCoalesced is Streams plus the memory-coalescing kernel of
	// §4.3. "GPU Streams + Memory" in Figure 12.
	StreamsCoalesced
)

func (m Mode) String() string {
	switch m {
	case Basic:
		return "gpu-basic"
	case Streams:
		return "gpu-streams"
	case StreamsCoalesced:
		return "gpu-streams+memory"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// KernelMode returns the GPU memory mode the pipeline mode uses.
func (m Mode) KernelMode() gpu.MemoryMode {
	if m == StreamsCoalesced {
		return gpu.Coalesced
	}
	return gpu.NaiveGlobal
}

// BufferKind returns the host buffer kind the pipeline mode transfers
// from.
func (m Mode) BufferKind() pcie.BufferKind {
	if m == Basic {
		return pcie.Pageable
	}
	return pcie.Pinned
}

// Config configures a Shredder instance.
type Config struct {
	// Mode selects the optimization level.
	Mode Mode
	// BufferSize is the size of each host/device transfer buffer.
	BufferSize int
	// PipelineDepth is the number of buffers admitted to the streaming
	// pipeline at once (Figure 9 varies it from 2 to 4). Basic mode
	// always behaves as depth 1.
	PipelineDepth int
	// RingRegions is the number of pinned regions in the circular ring
	// (§4.1.2); it must be at least PipelineDepth so a region is free
	// whenever a buffer is admitted. 0 means PipelineDepth.
	RingRegions int
	// Devices is the number of GPUs used as co-processors (§5.2: "one
	// or more GPUs"). Buffers are dispatched round-robin; each device
	// sits on its own PCIe slot. 0 means 1.
	Devices int
	// GPUDirect, when true, models the §9 GPUDirect optimization: the
	// SAN adapter DMAs straight into device memory, eliminating the
	// host staging transfer. Requires a pinned-memory mode (not Basic).
	GPUDirect bool
	// Chunking selects and configures the content-defined chunking
	// engine. AlgoRabin runs on the modeled GPU kernel exactly as
	// before; any other engine runs on the host CPU, with the kernel
	// stage modeled by HostChunkBps.
	Chunking chunk.Spec
	// HostChunkBps is the modeled host-side chunking rate (bytes/sec)
	// for engines the GPU cannot offload (FastCDC). 0 means 2 GB/s,
	// roughly one core's gear-hash throughput.
	HostChunkBps float64
	// Kernel configures the device and its chunking kernel.
	Kernel gpu.KernelConfig
	// PCIe models the host/device link.
	PCIe pcie.Model
	// IO models the reader/store SAN path.
	IO host.IOModel
	// Mem models host memory allocation.
	Mem hostmem.Model
	// UpcallNsPerChunk is the Store-thread cost of notifying the
	// application of one chunk boundary.
	UpcallNsPerChunk float64
}

// DefaultConfig returns the paper's full-optimization configuration:
// 32 MB buffers, 4-stage pipeline, memory coalescing.
func DefaultConfig() Config {
	return Config{
		Mode:             StreamsCoalesced,
		BufferSize:       32 << 20,
		PipelineDepth:    4,
		Chunking:         chunk.DefaultSpec(),
		Kernel:           gpu.DefaultKernelConfig(),
		PCIe:             pcie.Default(),
		IO:               host.DefaultIO(),
		Mem:              hostmem.Default(),
		UpcallNsPerChunk: 250,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BufferSize < 1 {
		return errors.New("core: buffer size must be positive")
	}
	if c.PipelineDepth < 1 || c.PipelineDepth > 16 {
		return errors.New("core: pipeline depth must be in [1, 16]")
	}
	if c.RingRegions != 0 && c.RingRegions < c.PipelineDepth {
		return errors.New("core: ring must have at least PipelineDepth regions")
	}
	if c.Devices < 0 || c.Devices > 8 {
		return errors.New("core: device count must be in [0, 8]")
	}
	if c.GPUDirect && c.Mode == Basic {
		return errors.New("core: GPUDirect requires a pinned-memory mode")
	}
	if err := c.Chunking.Validate(); err != nil {
		return err
	}
	if c.HostChunkBps < 0 {
		return errors.New("core: negative host chunking rate")
	}
	if err := c.PCIe.Validate(); err != nil {
		return err
	}
	if err := c.IO.Validate(); err != nil {
		return err
	}
	// Device memory must hold the in-flight buffers (twin buffers for
	// the double-buffered modes). Host-side engines never leave host
	// memory, so the constraint does not apply to them.
	if c.Chunking.Algo == chunk.AlgoRabin {
		inFlight := int64(c.BufferSize)
		if c.Mode != Basic {
			inFlight *= 2
		}
		if inFlight > c.Kernel.Spec.GlobalMemBytes {
			return fmt.Errorf("core: %d bytes of in-flight buffers exceed device memory %d",
				inFlight, c.Kernel.Spec.GlobalMemBytes)
		}
	}
	return nil
}

// StageTimes aggregates the busy time of each pipeline stage.
type StageTimes struct {
	Reader, Transfer, Kernel, Store time.Duration
}

// Report describes one ChunkReader/ChunkBytes run.
type Report struct {
	// Mode the pipeline ran in.
	Mode Mode
	// Bytes processed and Chunks produced (real, functional results).
	Bytes  int64
	Chunks int
	// Buffers is how many device buffers the stream was cut into.
	Buffers int
	// SimTime is the simulated end-to-end makespan.
	SimTime time.Duration
	// Throughput is Bytes/SimTime in bytes per second — the quantity on
	// Figure 12's y-axis.
	Throughput float64
	// SetupTime is the one-time modeled initialization cost (pinned
	// ring allocation); it is amortized over the system's lifetime and
	// therefore not part of SimTime. Basic mode pays a single pageable
	// allocation instead.
	SetupTime time.Duration
	// Stage gives per-stage busy totals; their overlap is what the
	// optimizations buy.
	Stage StageTimes
	// BankConflicts aggregates the modeled GPU memory conflicts.
	BankConflicts uint64
}

// Shredder is the chunking service. Create one with New; it is safe
// for sequential reuse across streams (one stream at a time).
type Shredder struct {
	cfg Config
	eng chunk.Engine
	// chk and kernel are set only for the Rabin engine — the one the
	// GPU can offload. Other engines chunk on the host.
	chk     *chunker.Chunker
	kernel  *gpu.Kernel
	ring    *hostmem.Ring
	setup   time.Duration
	devices int
}

// New builds a Shredder from cfg.
func New(cfg Config) (*Shredder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.HostChunkBps == 0 {
		cfg.HostChunkBps = 2e9
	}
	eng, err := chunk.New(cfg.Chunking)
	if err != nil {
		return nil, err
	}
	s := &Shredder{cfg: cfg, eng: eng}
	if rb, ok := eng.(*chunk.Rabin); ok {
		s.chk = rb.Chunker()
		kern, err := gpu.NewKernel(cfg.Kernel, s.chk)
		if err != nil {
			return nil, err
		}
		s.kernel = kern
	}
	s.devices = cfg.Devices
	if s.devices == 0 {
		s.devices = 1
	}
	if cfg.Mode == Basic || s.chk == nil {
		// One reusable pageable staging buffer, allocated at startup.
		// Host-side engines never DMA, so they use plain pageable
		// memory too — no pinned ring to allocate or account for.
		s.setup = cfg.Mem.PageableAllocTime(int64(cfg.BufferSize))
	} else {
		regions := cfg.RingRegions
		if regions == 0 {
			regions = cfg.PipelineDepth
		}
		// The ring regions carry Window-1 bytes of prefix so each
		// buffer can be scanned with window continuity.
		ring, err := hostmem.NewRing(cfg.Mem, regions, cfg.BufferSize+cfg.Chunking.Window-1)
		if err != nil {
			return nil, err
		}
		s.ring = ring
		s.setup = ring.AllocTime
	}
	return s, nil
}

// Config returns the configuration the Shredder was built with.
func (s *Shredder) Config() Config { return s.cfg }

// Chunker exposes the underlying sequential Rabin chunker (shared
// parameters and fingerprint tables). It is nil for engines the GPU
// cannot offload.
func (s *Shredder) Chunker() *chunker.Chunker { return s.chk }

// Kernel exposes the GPU kernel model (for experiments and ablations).
// It is nil for host-side engines.
func (s *Shredder) Kernel() *gpu.Kernel { return s.kernel }
