// Package devices models the hardware the evaluated drivers talk to: an
// NVMe controller with submission/completion queues and an internal DRAM
// cache (the Fig. 6 experiment reads one block repeatedly to stay inside
// that cache), an E1000E-style ring-buffer NIC with a 1 GbE wire, and an
// xHCI-like port device. Devices are reached through MMIO registers via
// internal/mm and DMA directly into guest physical memory — the same
// interaction pattern the real drivers have, so driver code paths in
// internal/drivers exercise loads, stores and doorbells exactly as the
// paper's modules do.
package devices

import (
	"encoding/binary"
	"sort"
	"sync"

	"adelie/internal/bus"
	"adelie/internal/mm"
	"adelie/internal/obs"
)

// Latency model (cycles at the 2.2 GHz nominal clock). NVMeCacheLatency
// corresponds to ~8 µs — an NVMe read served from controller DRAM, the
// fast path Fig. 6's benchmark deliberately hits.
const (
	NVMeCacheLatency = 17600  // ≈8 µs: controller DRAM cache hit
	NVMeMediaLatency = 176000 // ≈80 µs: flash read
)

// NVMe MMIO register map (byte offsets).
const (
	NVMeRegSQBase   = 0x00 // submission queue base VA
	NVMeRegCQBase   = 0x08 // completion queue base VA
	NVMeRegDoorbell = 0x10 // write: SQ tail index to process
	NVMeRegLatency  = 0x18 // read: cycles the last command took
	NVMeRegIntCtl   = 0x20 // write 1: enable the completion interrupt; 0: disable; read: state
)

// NVMe command opcodes (first word of an SQ entry).
const (
	NVMeCmdRead  = 1
	NVMeCmdWrite = 2
)

// SQ entry layout (4 words): opcode, LBA, byte count, buffer VA.
// CQ entry layout (2 words): status (1 = done), command latency in
// cycles. Queues are slot-indexed by the doorbell value; the driver
// dedicates slot smp_processor_id() to each vCPU, so commands from
// different vCPUs never share an entry.

// NVMe is the controller. Its DMA allocates nothing per command: reads
// and writes stage through one reused buffer, and a write to an existing
// block overwrites it in place (media is per controller; CloneFor
// deep-copies it).
//
// It implements bus.EpochDevice (discovered by interface assertion when
// the controller is attached): between BeginEpoch and EndEpoch
// (the engine's round barriers), cache-hit decisions are made against
// the epoch-start snapshot of the DRAM cache and insertions are
// buffered, applied in sorted order at EndEpoch. Latencies observed by
// concurrently-executing vCPUs are therefore independent of host
// goroutine scheduling — the property that keeps parallel measurement
// runs bit-reproducible.
type NVMe struct {
	mu sync.Mutex
	as *mm.AddressSpace

	sqBase, cqBase uint64
	sqHead         uint64
	lastLatency    uint64

	media     map[uint64][]byte // LBA → 512-byte block, overwritten in place
	dma       []byte            // DMA staging buffer reused across commands
	cachedLBA map[uint64]bool   // controller DRAM cache contents
	cacheFIFO []uint64          // insertion order, for deterministic eviction
	cacheCap  int

	epoch        bool            // inside a BeginEpoch/EndEpoch window
	pendingTouch []uint64        // cache insertions buffered this epoch
	pendingSet   map[uint64]bool // dedup for pendingTouch

	// Completion-interrupt state (bus.IRQDevice). The interrupt is
	// disabled until the driver writes NVMeRegIntCtl=1; the legacy
	// polled-CQ driver never does, so the controller raises nothing for
	// it and stays bit-identical to the pre-interrupt device.
	irq        *bus.Line
	clock      func() uint64
	intEnabled bool

	Reads, Writes, CacheHits uint64
	IRQsAsserted             uint64
}

// NewNVMe creates a controller DMA-attached to the address space.
func NewNVMe(as *mm.AddressSpace) *NVMe {
	return &NVMe{
		as: as, media: map[uint64][]byte{}, cachedLBA: map[uint64]bool{},
		cacheCap: 1024, pendingSet: map[uint64]bool{},
	}
}

// DevName implements bus.Device.
func (d *NVMe) DevName() string { return "nvme" }

// DevPages implements bus.Device.
func (d *NVMe) DevPages() int { return 1 }

// ConnectIRQ implements bus.IRQDevice: the bus hands the controller its
// completion-interrupt line and a reader for the barrier-published
// virtual clock.
func (d *NVMe) ConnectIRQ(l *bus.Line, now func() uint64) {
	d.mu.Lock()
	d.irq, d.clock = l, now
	d.mu.Unlock()
}

// IRQLine returns the bus line number wired to the controller (-1 if
// none).
func (d *NVMe) IRQLine() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.irq == nil {
		return -1
	}
	return d.irq.Num()
}

// BeginEpoch enters round-granular cache semantics (bus.EpochDevice).
func (d *NVMe) BeginEpoch() {
	d.mu.Lock()
	d.epoch = true
	d.mu.Unlock()
}

// EndEpoch applies buffered cache insertions in deterministic (sorted)
// order and leaves epoch mode.
func (d *NVMe) EndEpoch() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.epoch = false
	sort.Slice(d.pendingTouch, func(i, j int) bool { return d.pendingTouch[i] < d.pendingTouch[j] })
	for _, lba := range d.pendingTouch {
		d.insertCache(lba)
	}
	d.pendingTouch = d.pendingTouch[:0]
	clear(d.pendingSet)
}

// Preload writes a block image directly to the media (test fixtures).
func (d *NVMe) Preload(lba uint64, data []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	blk := make([]byte, 512)
	copy(blk, data)
	d.media[lba] = blk
}

// MMIORead implements mm.MMIOHandler.
func (d *NVMe) MMIORead(off uint64) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch off {
	case NVMeRegSQBase:
		return d.sqBase
	case NVMeRegCQBase:
		return d.cqBase
	case NVMeRegLatency:
		return d.lastLatency
	case NVMeRegIntCtl:
		if d.intEnabled {
			return 1
		}
	}
	return 0
}

// MMIOWrite implements mm.MMIOHandler. A doorbell write executes the
// command at the rung SQ slot and posts its completion.
func (d *NVMe) MMIOWrite(off uint64, val uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch off {
	case NVMeRegSQBase:
		d.sqBase = val
	case NVMeRegCQBase:
		d.cqBase = val
	case NVMeRegDoorbell:
		d.process(val)
	case NVMeRegIntCtl:
		d.intEnabled = val != 0
	}
}

func (d *NVMe) process(slot uint64) {
	if d.sqBase == 0 || d.cqBase == 0 {
		return
	}
	entry := d.sqBase + slot*32
	op, _ := d.as.Read64Force(entry)
	lba, _ := d.as.Read64Force(entry + 8)
	count, _ := d.as.Read64Force(entry + 16)
	buf, _ := d.as.Read64Force(entry + 24)
	if count > 1<<20 {
		count = 1 << 20
	}

	if uint64(cap(d.dma)) < count {
		d.dma = make([]byte, count)
	}
	data := d.dma[:count]

	latency := uint64(NVMeMediaLatency)
	switch op {
	case NVMeCmdRead:
		d.Reads++
		if d.cachedLBA[lba] {
			d.CacheHits++
			latency = NVMeCacheLatency
		}
		d.touchCache(lba)
		// DMA the block(s) into the host buffer; unwritten blocks read
		// as zeros.
		for i := uint64(0); i < count; i += 512 {
			chunk := data[i:min(i+512, count)]
			if blk, ok := d.media[lba+i/512]; ok {
				copy(chunk, blk)
			} else {
				clear(chunk)
			}
		}
		_ = d.as.WriteBytesForce(buf, data)
	case NVMeCmdWrite:
		d.Writes++
		if d.as.ReadInto(data, buf) == nil {
			for i := uint64(0); i < count; i += 512 {
				blk, ok := d.media[lba+i/512]
				if !ok {
					blk = make([]byte, 512)
					d.media[lba+i/512] = blk
				}
				n := copy(blk, data[i:min(i+512, count)])
				clear(blk[n:]) // a short last chunk zero-fills the block's tail
			}
		}
		d.touchCache(lba)
		latency = NVMeCacheLatency // write lands in controller DRAM
	default:
		return
	}
	d.lastLatency = latency
	// Post completion: status=1, then the command's latency so the
	// driver reads its own slot's timing instead of a shared register.
	_ = d.as.Write64Force(d.cqBase+slot*16, 1)
	_ = d.as.Write64Force(d.cqBase+slot*16+8, latency)
	// Completion interrupt: raised per posted completion when the driver
	// enabled it (the interrupt-driven driver retired the polled CQ).
	// pendingSince is the barrier-published clock — the command was
	// submitted and completed within this round.
	if d.intEnabled && d.irq != nil {
		since := uint64(0)
		if d.clock != nil {
			since = d.clock()
		}
		d.irq.Assert(since)
		d.IRQsAsserted++
	}
}

// touchCache records an access to lba. Inside an epoch the insertion is
// buffered so hit/miss decisions keep reading the epoch-start snapshot.
func (d *NVMe) touchCache(lba uint64) {
	if d.epoch {
		if !d.cachedLBA[lba] && !d.pendingSet[lba] {
			d.pendingSet[lba] = true
			d.pendingTouch = append(d.pendingTouch, lba)
		}
		return
	}
	d.insertCache(lba)
}

// insertCache admits lba, evicting the oldest entry at capacity. FIFO
// order (not map iteration) keeps eviction — and therefore every
// subsequent hit/miss latency — deterministic across runs.
func (d *NVMe) insertCache(lba uint64) {
	if d.cachedLBA[lba] {
		return
	}
	if len(d.cachedLBA) >= d.cacheCap {
		victim := d.cacheFIFO[0]
		d.cacheFIFO = d.cacheFIFO[1:]
		delete(d.cachedLBA, victim)
	}
	d.cachedLBA[lba] = true
	d.cacheFIFO = append(d.cacheFIFO, lba)
}

// ReadBlockDirect is a host-side helper mirroring what the driver's DMA
// does — used by tests to verify media contents.
func (d *NVMe) ReadBlockDirect(lba uint64) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	blk, ok := d.media[lba]
	if !ok {
		return make([]byte, 512)
	}
	out := make([]byte, 512)
	copy(out, blk)
	return out
}

// EncodeSQEntry builds the 32-byte submission entry the driver writes.
func EncodeSQEntry(op, lba, count, buf uint64) []byte {
	b := make([]byte, 32)
	binary.LittleEndian.PutUint64(b[0:], op)
	binary.LittleEndian.PutUint64(b[8:], lba)
	binary.LittleEndian.PutUint64(b[16:], count)
	binary.LittleEndian.PutUint64(b[24:], buf)
	return b
}

// ObsStats implements obs.StatSource: cumulative submit/complete
// counters the engine delta-samples at round barriers to derive NVMe
// trace events.
func (d *NVMe) ObsStats(dst []obs.Stat) []obs.Stat {
	return append(dst,
		obs.Stat{Name: "reads", Value: d.Reads},
		obs.Stat{Name: "writes", Value: d.Writes},
		obs.Stat{Name: "cache_hits", Value: d.CacheHits},
		obs.Stat{Name: "irqs_asserted", Value: d.IRQsAsserted},
	)
}
