// Package mm simulates the memory subsystem Adelie manipulates: physical
// page frames, a 57-bit virtual address space with 5-level page tables,
// page permissions (including NX / W^X enforcement), and TLBs.
//
// The central operation for the paper is zero-copy remapping (Fig. 2a):
// RemapRegion installs page-table entries at a new random base that point
// at the same physical frames as the old region, so moving a module never
// copies its code or data. Unmapping the old range is deferred by the
// re-randomizer until pending calls drain (internal/smr + internal/rerand).
package mm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Page geometry. AK64 uses 4 KB pages and five 9-bit translation levels,
// giving the 57-bit virtual address space of x86-64 5-level paging (the
// configuration the paper's §6 entropy analysis assumes).
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1

	levelBits = 9
	numLevels = 5

	// VABits is the number of meaningful virtual-address bits.
	VABits = PageShift + levelBits*numLevels // 57

	// KernelBase is the lowest kernel-half virtual address. Addresses at or
	// above it are kernel space; below is user space (SMAP: the kernel
	// refuses to fetch code from user pages).
	KernelBase = uint64(1) << (VABits - 1)

	// MaxVA is one past the highest valid virtual address.
	MaxVA = uint64(1) << VABits
)

// FrameID identifies a physical page frame.
type FrameID uint64

// NoFrame is the zero FrameID sentinel used where no frame applies.
const NoFrame = FrameID(^uint64(0))

// PageFlags describe page permissions. A present page is always readable;
// Write and Exec are granted separately so W^X can be enforced.
type PageFlags uint8

const (
	FlagWrite PageFlags = 1 << iota // page is writable
	FlagExec                        // page is executable (NX clear)
	FlagUser                        // page belongs to user space
	FlagMMIO                        // loads/stores are routed to a device
)

func (f PageFlags) String() string {
	s := "r"
	if f&FlagWrite != 0 {
		s += "w"
	} else {
		s += "-"
	}
	if f&FlagExec != 0 {
		s += "x"
	} else {
		s += "-"
	}
	if f&FlagUser != 0 {
		s += "u"
	}
	if f&FlagMMIO != 0 {
		s += "m"
	}
	return s
}

// Access is the kind of memory access being attempted.
type Access uint8

const (
	AccessRead Access = iota
	AccessWrite
	AccessExec
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return "?"
}

// PageFault reports a failed translation. The Adelie threat model leans on
// these: writes to a write-protected GOT fault, execution of NX data
// faults, and stale module addresses fault once the old range is unmapped.
type PageFault struct {
	VA     uint64
	Access Access
	Reason string
}

func (e *PageFault) Error() string {
	return fmt.Sprintf("page fault: %s at %#x (%s)", e.Access, e.VA, e.Reason)
}

// frameData is one physical frame plus the metadata the execution fast
// paths need. The content version is bumped on every write to a frame
// that is (or ever was) mapped executable; per-vCPU decoded-instruction
// caches validate against it, which closes the W^X hole of writing a
// code page through a writable alias mapping.
//
// refs counts how many machines' frame tables point at this record.
// A frame is born private (refs == 1); PhysMem.Fork increments refs for
// every frame it shares copy-on-write, and the first write through any
// sharer replaces its slot's record with a private copy (see
// frameSlot.private). Content never changes under a sharer's feet: a
// shared record is immutable until the last-but-one reference detaches.
type frameData struct {
	data [PageSize]byte
	ver  atomic.Uint64 // content version (see NoteWrite)
	exec atomic.Bool   // frame has been mapped executable at least once
	refs atomic.Int64  // machines sharing this record (1 = private)
}

// frameSlot is one machine's view of a physical frame: a stable cell
// whose current frameData pointer is swapped on copy-on-write. Slots are
// per-machine — forking copies the slot table, so sibling machines COW
// independently while the FrameID namespace (and everything keyed by it:
// page tables, module bookkeeping, decode caches) stays valid verbatim.
type frameSlot struct {
	mu  sync.Mutex // serializes copy-on-write on this slot
	fd  atomic.Pointer[frameData]
	ctr *atomic.Int64 // owning machine's COW-detach counter (PhysMem.detaches)
}

// load returns the slot's current frame record.
func (s *frameSlot) load() *frameData { return s.fd.Load() }

// private returns the slot's frame record, detaching it from any
// copy-on-write sharing first: if the record is shared, its bytes are
// copied into a fresh private record whose content version is bumped —
// which is exactly what invalidates decoded-instruction caches,
// superblocks and chain links built against the shared bytes. The
// detach is counted on the owning machine's observability counter
// (s.ctr), sampled by the engine at round barriers; the counter lives
// on the slot — not the hot translation Entry — so the TLB's cached
// entries stay one cache-line-friendly word narrower.
func (s *frameSlot) private() *frameData {
	fd := s.fd.Load()
	if fd.refs.Load() == 1 {
		return fd
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fd = s.fd.Load()
	if fd.refs.Load() == 1 {
		return fd
	}
	nfd := &frameData{data: fd.data}
	nfd.ver.Store(fd.ver.Load() + 1)
	nfd.exec.Store(fd.exec.Load())
	nfd.refs.Store(1)
	s.fd.Store(nfd)
	fd.refs.Add(-1)
	if s.ctr != nil {
		s.ctr.Add(1)
	}
	return nfd
}

// PhysMem is the physical memory of one machine: a growable set of 4 KB
// frames with a free list. Frames are zeroed on allocation.
//
// The slot table is published through an atomic pointer so that the
// translation fast path (vCPUs running concurrently on host goroutines)
// can index frames without taking the allocator lock. Alloc appends
// under the lock, then republishes; readers always observe a prefix
// that is fully initialized. The append grows the backing array
// geometrically and writes in place while capacity lasts: readers never
// index past the length they loaded, and Fork copies the table to exact
// length, so the spare capacity is never shared.
type PhysMem struct {
	mu    sync.Mutex
	slots atomic.Pointer[[]*frameSlot]
	free  []FrameID

	allocated   atomic.Int64 // currently live frames
	totalAllocs atomic.Int64
	detaches    atomic.Int64 // copy-on-write detaches (see COWDetaches)
	released    bool         // Release was called (teardown); second call panics
}

// NewPhysMem returns an empty physical memory.
func NewPhysMem() *PhysMem {
	p := &PhysMem{}
	empty := make([]*frameSlot, 0)
	p.slots.Store(&empty)
	return p
}

func (p *PhysMem) table() []*frameSlot { return *p.slots.Load() }

func newFrameData() *frameData {
	fd := &frameData{}
	fd.refs.Store(1)
	return fd
}

// Alloc allocates a zeroed frame.
func (p *PhysMem) Alloc() FrameID {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.allocated.Add(1)
	p.totalAllocs.Add(1)
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		s := p.table()[id]
		f := s.fd.Load()
		if f.refs.Load() > 1 {
			// The recycled frame is still shared copy-on-write with a
			// sibling machine: detach instead of zeroing in place. The
			// fresh record continues the version sequence so stale cache
			// entries in this machine can never validate against it.
			nf := &frameData{}
			nf.ver.Store(f.ver.Load() + 1)
			nf.refs.Store(1)
			s.fd.Store(nf)
			f.refs.Add(-1)
			p.detaches.Add(1)
			return id
		}
		f.data = [PageSize]byte{}
		// A recycled frame may carry decoded-instruction cache entries
		// from its previous life; invalidate them and reset exec.
		f.ver.Add(1)
		f.exec.Store(false)
		return id
	}
	ns := &frameSlot{ctr: &p.detaches}
	ns.fd.Store(newFrameData())
	nfs := append(p.table(), ns)
	p.slots.Store(&nfs)
	return FrameID(len(nfs) - 1)
}

// AllocN allocates n zeroed frames.
func (p *PhysMem) AllocN(n int) []FrameID {
	out := make([]FrameID, n)
	for i := range out {
		out[i] = p.Alloc()
	}
	return out
}

// Free returns a frame to the free list. Freeing an out-of-range frame
// panics: it indicates corruption in the caller, not bad input.
func (p *PhysMem) Free(id FrameID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) >= len(p.table()) {
		panic(fmt.Sprintf("mm: free of invalid frame %d", id))
	}
	p.allocated.Add(-1)
	p.free = append(p.free, id)
}

// slot returns the frame's slot, lock-free.
func (p *PhysMem) slot(id FrameID) *frameSlot {
	fs := p.table()
	if int(id) >= len(fs) {
		panic(fmt.Sprintf("mm: access to invalid frame %d", id))
	}
	return fs[id]
}

// frame returns the frame's current record, lock-free.
func (p *PhysMem) frame(id FrameID) *frameData { return p.slot(id).load() }

// Frame returns the backing bytes of a frame for reading. The caller must
// not retain the slice across a Free of the same frame.
func (p *PhysMem) Frame(id FrameID) []byte { return p.frame(id).data[:] }

// WritableFrame returns the backing bytes of a frame for writing,
// performing copy-on-write first if the frame is shared with a forked
// sibling machine. All write paths that bypass the TLB (kernel access
// helpers, device DMA, the loader) must use it instead of Frame.
func (p *PhysMem) WritableFrame(id FrameID) []byte { return p.slot(id).private().data[:] }

// COWDetaches returns how many frames this machine has detached from
// copy-on-write sharing (first writes after a fork). The engine samples
// the counter at round barriers to derive per-round trace events.
func (p *PhysMem) COWDetaches() int64 { return p.detaches.Load() }

// Fork returns a copy-on-write clone of this physical memory: a new slot
// table pointing at the same frame records with every refcount bumped.
// The clone and the original then detach frames independently on first
// write. Forking a machine that is concurrently writing memory is a data
// race — sim.Machine.Snapshot freezes the template first.
func (p *PhysMem) Fork() *PhysMem {
	p.mu.Lock()
	defer p.mu.Unlock()
	src := p.table()
	np := &PhysMem{free: append([]FrameID(nil), p.free...)}
	nslots := make([]*frameSlot, len(src))
	for i, s := range src {
		fd := s.fd.Load()
		fd.refs.Add(1)
		ns := &frameSlot{ctr: &np.detaches}
		ns.fd.Store(fd)
		nslots[i] = ns
	}
	np.slots.Store(&nslots)
	np.allocated.Store(p.allocated.Load())
	np.totalAllocs.Store(p.totalAllocs.Load())
	return np
}

// Release drops this machine's reference on every frame record (fork
// teardown). It returns the number of records whose last reference died
// here — frames whose memory becomes collectible. The PhysMem must not
// be used afterwards; a second Release panics.
func (p *PhysMem) Release() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.released {
		panic("mm: PhysMem released twice")
	}
	p.released = true
	var dead int64
	for _, s := range p.table() {
		if s.fd.Load().refs.Add(-1) == 0 {
			dead++
		}
	}
	return dead
}

// SharedFrames returns the number of frames currently shared copy-on-write
// with another machine (refcount > 1).
func (p *PhysMem) SharedFrames() int64 {
	var n int64
	for _, s := range p.table() {
		if s.fd.Load().refs.Load() > 1 {
			n++
		}
	}
	return n
}

// FrameVersion returns the content version of a frame. It only advances
// on writes to exec-mapped frames (and on frame recycling), so decoded
// code cached against a version stays valid exactly while the frame's
// bytes are unchanged.
func (p *PhysMem) FrameVersion(id FrameID) uint64 { return p.frame(id).ver.Load() }

// NoteWrite records that a frame's contents changed. Only exec-mapped
// frames pay the version bump; plain data frames keep writes free.
func (p *PhysMem) NoteWrite(id FrameID) {
	if f := p.frame(id); f.exec.Load() {
		f.ver.Add(1)
	}
}

// MarkExec flags a frame as reachable through an executable mapping,
// arming write tracking for decoded-instruction invalidation. The flag
// is sticky until the frame is freed and recycled: conservative, but it
// keeps the check on the store fast path a single atomic load.
func (p *PhysMem) MarkExec(id FrameID) { p.frame(id).exec.Store(true) }

// Live returns the number of currently allocated frames.
func (p *PhysMem) Live() int64 { return p.allocated.Load() }

// TotalAllocs returns the cumulative number of Alloc calls.
func (p *PhysMem) TotalAllocs() int64 { return p.totalAllocs.Load() }

// MMIOHandler receives 64-bit loads and stores on device-mapped pages.
// off is the byte offset within the mapped MMIO region.
type MMIOHandler interface {
	MMIORead(off uint64) uint64
	MMIOWrite(off uint64, val uint64)
}

type mmioRegion struct {
	base    uint64
	npages  int
	handler MMIOHandler
}

// pte is a page-table entry. Interior levels hold a child table; the leaf
// level holds a frame and its permissions.
type pte struct {
	child *table
	frame FrameID
	flags PageFlags
	leaf  bool
}

type table struct {
	entries [1 << levelBits]*pte
	used    int // number of non-nil entries, for table reclamation
}

// maxSpareNodes bounds an address space's list of reclaimed interior
// nodes. Re-randomization maps each region at a fresh random base and
// unmaps the old one, so the interior tables it frees are needed again
// by the next move; a few dozen cover every module in flight.
const maxSpareNodes = 64

// AddressSpace is one virtual address space backed by 5-level page tables.
// Mutating operations take the write lock; translations take the read
// lock only, so concurrent vCPUs do not serialize on the page tables
// (the per-CPU TLBs in front keep even the read lock off the hot path).
type AddressSpace struct {
	mu   sync.RWMutex
	root *table
	phys *PhysMem
	mmio []mmioRegion
	cow  bool // forked machine: translations resolve frames via slots

	// spare holds interior nodes (a pte and its empty child table) that
	// Unmap reclaimed; Map reuses them instead of allocating. Per address
	// space and never copied by Fork.
	spare []*pte

	mapped     int           // currently mapped pages
	gen        atomic.Uint64 // bumped on unmap/protect: TLB shootdown signal
	shootdowns atomic.Int64  // number of shootdowns issued
}

// NewAddressSpace returns an empty address space over phys.
func NewAddressSpace(phys *PhysMem) *AddressSpace {
	return &AddressSpace{root: &table{}, phys: phys}
}

// Phys returns the physical memory this address space maps.
func (as *AddressSpace) Phys() *PhysMem { return as.phys }

// Generation returns the current shootdown generation. TLBs compare it to
// decide whether their cached translations are stale.
func (as *AddressSpace) Generation() uint64 { return as.gen.Load() }

// Shootdowns returns the cumulative number of TLB shootdowns issued by
// unmap/protect operations (the re-randomization cost §4.3 discusses).
func (as *AddressSpace) Shootdowns() int64 { return as.shootdowns.Load() }

// MappedPages returns the number of currently mapped pages.
func (as *AddressSpace) MappedPages() int {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return as.mapped
}

func checkVA(va uint64) error {
	if va >= MaxVA {
		return &PageFault{VA: va, Access: AccessRead, Reason: "non-canonical address"}
	}
	return nil
}

// indexes splits a VA into its five level indexes, most significant first.
func indexes(va uint64) [numLevels]int {
	var ix [numLevels]int
	shift := PageShift + levelBits*(numLevels-1)
	for i := 0; i < numLevels; i++ {
		ix[i] = int(va>>shift) & (1<<levelBits - 1)
		shift -= levelBits
	}
	return ix
}

// walk returns the leaf pte for va, or nil. Caller holds as.mu.
func (as *AddressSpace) walk(va uint64) *pte {
	t := as.root
	ix := indexes(va)
	for i := 0; i < numLevels-1; i++ {
		e := t.entries[ix[i]]
		if e == nil || e.child == nil {
			return nil
		}
		t = e.child
	}
	e := t.entries[ix[numLevels-1]]
	if e == nil || !e.leaf {
		return nil
	}
	return e
}

// Map installs a translation for the page containing va. The address must
// be page-aligned and not already mapped. W^X is enforced: requesting
// Write|Exec together is rejected, mirroring the kernel policy Adelie
// assumes (§2.1: data pages are NX; GOT pages are write-protected).
func (as *AddressSpace) Map(va uint64, frame FrameID, flags PageFlags) error {
	if va&PageMask != 0 {
		return fmt.Errorf("mm: Map: unaligned va %#x", va)
	}
	if err := checkVA(va); err != nil {
		return err
	}
	if flags&FlagWrite != 0 && flags&FlagExec != 0 {
		return fmt.Errorf("mm: Map: W^X violation at %#x", va)
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	t := as.root
	ix := indexes(va)
	for i := 0; i < numLevels-1; i++ {
		e := t.entries[ix[i]]
		if e == nil {
			e = as.interiorNode()
			t.entries[ix[i]] = e
			t.used++
		}
		t = e.child
	}
	if t.entries[ix[numLevels-1]] != nil {
		return fmt.Errorf("mm: Map: va %#x already mapped", va)
	}
	t.entries[ix[numLevels-1]] = &pte{frame: frame, flags: flags, leaf: true}
	t.used++
	as.mapped++
	if flags&FlagExec != 0 {
		as.phys.MarkExec(frame)
	}
	return nil
}

// interiorNode returns an interior pte with an empty child table, reusing
// one Unmap reclaimed when there is one. Caller holds as.mu.
func (as *AddressSpace) interiorNode() *pte {
	n := len(as.spare)
	if n == 0 {
		return &pte{child: &table{}}
	}
	e := as.spare[n-1]
	as.spare[n-1] = nil
	as.spare = as.spare[:n-1]
	return e
}

// Unmap removes the translation for the page containing va and issues a
// TLB shootdown. It returns the frame that was mapped there; the caller
// decides whether to free it (zero-copy remapping keeps frames alive while
// both old and new mappings exist).
func (as *AddressSpace) Unmap(va uint64) (FrameID, error) {
	if va&PageMask != 0 {
		return NoFrame, fmt.Errorf("mm: Unmap: unaligned va %#x", va)
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	t := as.root
	ix := indexes(va)
	var path [numLevels - 1]*table
	for i := 0; i < numLevels-1; i++ {
		path[i] = t
		e := t.entries[ix[i]]
		if e == nil || e.child == nil {
			return NoFrame, fmt.Errorf("mm: Unmap: va %#x not mapped", va)
		}
		t = e.child
	}
	e := t.entries[ix[numLevels-1]]
	if e == nil || !e.leaf {
		return NoFrame, fmt.Errorf("mm: Unmap: va %#x not mapped", va)
	}
	t.entries[ix[numLevels-1]] = nil
	t.used--
	as.mapped--
	// Reclaim now-empty interior tables, bottom-up, onto the spare list.
	for i := numLevels - 2; i >= 0 && t.used == 0; i-- {
		parent := path[i]
		if len(as.spare) < maxSpareNodes {
			as.spare = append(as.spare, parent.entries[ix[i]])
		}
		parent.entries[ix[i]] = nil
		parent.used--
		t = parent
	}
	as.gen.Add(1)
	as.shootdowns.Add(1)
	return e.frame, nil
}

// Protect changes the permissions of an already-mapped page (e.g. the
// loader write-protecting GOT/PLT pages after relocation, §4.1). Issues a
// TLB shootdown.
func (as *AddressSpace) Protect(va uint64, flags PageFlags) error {
	if flags&FlagWrite != 0 && flags&FlagExec != 0 {
		return fmt.Errorf("mm: Protect: W^X violation at %#x", va)
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	e := as.walk(va &^ PageMask)
	if e == nil {
		return fmt.Errorf("mm: Protect: va %#x not mapped", va)
	}
	e.flags = flags
	if flags&FlagExec != 0 {
		as.phys.MarkExec(e.frame)
	}
	as.gen.Add(1)
	as.shootdowns.Add(1)
	return nil
}

// Lookup returns the frame and flags mapping the page containing va.
func (as *AddressSpace) Lookup(va uint64) (FrameID, PageFlags, bool) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	e := as.walk(va &^ PageMask)
	if e == nil {
		return NoFrame, 0, false
	}
	return e.frame, e.flags, true
}

// Entry is one resolved translation, as cached by TLBs and consumed by
// the CPU fast paths. For non-MMIO pages in a machine that was never
// forked it carries a direct pointer to the frame record, so loads,
// stores and instruction fetch touch memory without re-walking the page
// tables or locking the allocator. In a forked (copy-on-write) machine
// it instead carries the frame's slot and resolves the current record on
// every access: a cached direct pointer would keep reading the shared
// pre-fork bytes after a device or sibling vCPU detached the frame —
// slot indirection makes post-COW writes visible without TLB shootdowns.
type Entry struct {
	Frame FrameID
	Flags PageFlags
	fd    *frameData // direct record; nil for MMIO pages and COW mode
	slot  *frameSlot // COW mode; nil for MMIO pages and direct mode
}

// rec resolves the entry's current frame record (nil for MMIO pages).
func (e Entry) rec() *frameData {
	if e.fd != nil {
		return e.fd
	}
	if e.slot != nil {
		return e.slot.load()
	}
	return nil
}

// Bytes returns the frame's backing bytes for reading (nil for MMIO
// pages).
func (e Entry) Bytes() []byte {
	fd := e.rec()
	if fd == nil {
		return nil
	}
	return fd.data[:]
}

// WritableBytes returns the frame's backing bytes for writing, detaching
// the frame from copy-on-write sharing first if needed (nil for MMIO
// pages). The store fast path must use it instead of Bytes: writing
// shared bytes would leak into the snapshot template and every sibling.
func (e Entry) WritableBytes() []byte {
	if e.fd != nil {
		return e.fd.data[:]
	}
	if e.slot == nil {
		return nil
	}
	return e.slot.private().data[:]
}

// CodeWindow returns the frame's bytes from off to the end of the page —
// the window within which a basic block can be decoded without a second
// translation (a block never outlives its page: crossing the boundary
// would need the next frame's translation and content version). Nil for
// MMIO pages.
func (e Entry) CodeWindow(off int) []byte {
	fd := e.rec()
	if fd == nil {
		return nil
	}
	return fd.data[off:]
}

// Version returns the frame's content version (0 for MMIO pages).
func (e Entry) Version() uint64 {
	fd := e.rec()
	if fd == nil {
		return 0
	}
	return fd.ver.Load()
}

// FrameRef is a stable one-word reference to a frame's content version.
// Execution caches that link decoded code across translations (superblock
// chain links) hold one per cached successor so they can revalidate the
// frame's bytes with a single atomic load — no page walk, no TLB probe.
// A recycled frame bumps its version on reallocation, and copy-on-write
// detach bumps it past the shared record's, so a stale ref can never
// validate against a frame's next life.
type FrameRef struct {
	fd   *frameData // nil for MMIO pages and COW mode
	slot *frameSlot // COW mode
}

// Ref returns the frame-version handle for this translation.
func (e Entry) Ref() FrameRef { return FrameRef{fd: e.fd, slot: e.slot} }

// Version returns the referenced frame's current content version (0 for
// the zero ref and MMIO pages).
func (r FrameRef) Version() uint64 {
	fd := r.fd
	if fd == nil {
		if r.slot == nil {
			return 0
		}
		fd = r.slot.load()
	}
	return fd.ver.Load()
}

// NoteWrite records a content change through this translation (decoded
// instruction caches watch exec-mapped frames; see PhysMem.NoteWrite).
func (e Entry) NoteWrite() {
	if fd := e.rec(); fd != nil && fd.exec.Load() {
		fd.ver.Add(1)
	}
}

// Translate checks permissions and returns the frame for an access at va.
func (as *AddressSpace) Translate(va uint64, access Access) (FrameID, PageFlags, error) {
	e, err := as.TranslateEntry(va, access)
	return e.Frame, e.Flags, err
}

// TranslateEntry is Translate returning the full fast-path Entry. It
// takes only the read lock: concurrent vCPUs translate in parallel.
func (as *AddressSpace) TranslateEntry(va uint64, access Access) (Entry, error) {
	if err := checkVA(va); err != nil {
		return Entry{Frame: NoFrame}, err
	}
	as.mu.RLock()
	e := as.walk(va &^ PageMask)
	as.mu.RUnlock()
	if e == nil {
		return Entry{Frame: NoFrame}, &PageFault{VA: va, Access: access, Reason: "not mapped"}
	}
	if err := checkPerm(va, e.flags, access); err != nil {
		return Entry{Frame: NoFrame}, err
	}
	out := Entry{Frame: e.frame, Flags: e.flags}
	if e.flags&FlagMMIO == 0 {
		if as.cow {
			out.slot = as.phys.slot(e.frame)
		} else {
			out.fd = as.phys.frame(e.frame)
		}
	}
	return out, nil
}

func checkPerm(va uint64, flags PageFlags, access Access) error {
	switch access {
	case AccessWrite:
		if flags&FlagWrite == 0 {
			return &PageFault{VA: va, Access: access, Reason: "write to read-only page"}
		}
	case AccessExec:
		if flags&FlagExec == 0 {
			return &PageFault{VA: va, Access: access, Reason: "NX: execute of non-executable page"}
		}
		if flags&FlagUser != 0 {
			// SMAP/SMEP analogue: the simulated kernel never executes
			// user pages (§2.1: "Adelie assumes this feature is enabled").
			return &PageFault{VA: va, Access: access, Reason: "SMEP: kernel execution of user page"}
		}
	}
	return nil
}

// MapRegion allocates npages fresh frames and maps them contiguously at
// base. It returns the frames so callers can later remap or free them.
func (as *AddressSpace) MapRegion(base uint64, npages int, flags PageFlags) ([]FrameID, error) {
	frames := make([]FrameID, 0, npages)
	for i := 0; i < npages; i++ {
		f := as.phys.Alloc()
		if err := as.Map(base+uint64(i)*PageSize, f, flags); err != nil {
			// Roll back partial work.
			as.phys.Free(f)
			for j, g := range frames {
				if _, uerr := as.Unmap(base + uint64(j)*PageSize); uerr == nil {
					as.phys.Free(g)
				}
			}
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// RemapRegion implements the zero-copy move of Fig. 2a: it maps the frames
// currently backing [oldBase, oldBase+npages*PageSize) at newBase with the
// same per-page permissions. The old mapping is left untouched — tearing it
// down is the re-randomizer's job once pending calls drain.
func (as *AddressSpace) RemapRegion(newBase, oldBase uint64, npages int) error {
	type pageInfo struct {
		frame FrameID
		flags PageFlags
	}
	infos := make([]pageInfo, npages)
	as.mu.RLock()
	for i := 0; i < npages; i++ {
		e := as.walk(oldBase + uint64(i)*PageSize)
		if e == nil {
			as.mu.RUnlock()
			return fmt.Errorf("mm: RemapRegion: source page %#x not mapped", oldBase+uint64(i)*PageSize)
		}
		infos[i] = pageInfo{e.frame, e.flags}
	}
	as.mu.RUnlock()
	for i, pi := range infos {
		if err := as.Map(newBase+uint64(i)*PageSize, pi.frame, pi.flags); err != nil {
			for j := 0; j < i; j++ {
				_, _ = as.Unmap(newBase + uint64(j)*PageSize)
			}
			return err
		}
	}
	return nil
}

// UnmapRegion removes npages translations starting at base. If freeFrames
// is true the backing frames are returned to the allocator (used when the
// last mapping of a region dies; zero-copy remaps pass false).
func (as *AddressSpace) UnmapRegion(base uint64, npages int, freeFrames bool) error {
	for i := 0; i < npages; i++ {
		f, err := as.Unmap(base + uint64(i)*PageSize)
		if err != nil {
			return err
		}
		if freeFrames {
			as.phys.Free(f)
		}
	}
	return nil
}

// RegisterMMIO maps npages at base as an MMIO region served by handler.
// MMIO pages are readable and writable but never executable.
func (as *AddressSpace) RegisterMMIO(base uint64, npages int, handler MMIOHandler) error {
	if base&PageMask != 0 {
		return fmt.Errorf("mm: RegisterMMIO: unaligned base %#x", base)
	}
	for i := 0; i < npages; i++ {
		// MMIO pages get a dedicated dummy frame so translation succeeds.
		f := as.phys.Alloc()
		if err := as.Map(base+uint64(i)*PageSize, f, FlagWrite|FlagMMIO); err != nil {
			return err
		}
	}
	as.mu.Lock()
	as.mmio = append(as.mmio, mmioRegion{base: base, npages: npages, handler: handler})
	as.mu.Unlock()
	return nil
}

// Fork returns a copy-on-write clone of this address space over phys
// (which must be the matching PhysMem.Fork result: the FrameID namespace
// carries over verbatim). The clone gets deep-copied page tables — so
// Map/Unmap/Protect diverge freely — and runs in COW mode: translations
// resolve frames through slots so post-fork writes are visible to every
// cached entry. MMIO regions are copied with their handlers still
// pointing at the template's devices; the bus clone rebinds them via
// RebindMMIO.
func (as *AddressSpace) Fork(phys *PhysMem) *AddressSpace {
	as.mu.RLock()
	defer as.mu.RUnlock()
	nas := &AddressSpace{
		root:   cloneTable(as.root, numLevels-1),
		phys:   phys,
		mmio:   append([]mmioRegion(nil), as.mmio...),
		cow:    true,
		mapped: as.mapped,
	}
	nas.gen.Store(as.gen.Load())
	nas.shootdowns.Store(as.shootdowns.Load())
	return nas
}

// cloneTable deep-copies a page-table subtree (depth counts the interior
// levels remaining below this table).
func cloneTable(t *table, depth int) *table {
	nt := &table{used: t.used}
	for i, e := range t.entries {
		if e == nil {
			continue
		}
		ne := &pte{frame: e.frame, flags: e.flags, leaf: e.leaf}
		if depth > 0 && e.child != nil {
			ne.child = cloneTable(e.child, depth-1)
		}
		nt.entries[i] = ne
	}
	return nt
}

// RebindMMIO replaces the handler of the MMIO region registered at base —
// used when forking a machine to point the cloned address space's device
// windows at the cloned devices instead of the template's.
func (as *AddressSpace) RebindMMIO(base uint64, handler MMIOHandler) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for i := range as.mmio {
		if as.mmio[i].base == base {
			as.mmio[i].handler = handler
			return nil
		}
	}
	return fmt.Errorf("mm: RebindMMIO: no region at %#x", base)
}

// mmioFor returns the handler and region-relative offset for va, if va
// falls inside a registered MMIO region.
func (as *AddressSpace) mmioFor(va uint64) (MMIOHandler, uint64, bool) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	for _, r := range as.mmio {
		end := r.base + uint64(r.npages)*PageSize
		if va >= r.base && va < end {
			return r.handler, va - r.base, true
		}
	}
	return nil, 0, false
}
