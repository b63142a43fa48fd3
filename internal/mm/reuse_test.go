package mm

import (
	"bytes"
	"math/rand"
	"testing"
)

// Allocation-free bookkeeping: ReadInto copies into caller buffers, the
// frame table grows by amortized append, and Unmap's reclaimed interior
// page-table nodes are recycled by Map.

// nodes collects every pte and table reachable from t.
func nodes(t *table, depth int, ptes map[*pte]bool, tables map[*table]bool) {
	tables[t] = true
	for _, e := range t.entries {
		if e == nil {
			continue
		}
		ptes[e] = true
		if depth > 0 && e.child != nil {
			nodes(e.child, depth-1, ptes, tables)
		}
	}
}

// TestMapUnmapRecyclesInteriorNodes maps and unmaps short regions at
// random 64-bit kernel bases, as re-randomization does, beside a fixed
// region that stays mapped. Page counts, lookups and a later fork stay
// consistent; the spare list is bounded, never reachable from a live
// tree, and never shared with a fork.
func TestMapUnmapRecyclesInteriorNodes(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	const fixed = KernelBase + 0x100000
	frames, err := as.MapRegion(fixed, 4, FlagWrite)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	randBase := func() uint64 {
		return KernelBase + (rng.Uint64()%(MaxVA-KernelBase-16*PageSize))&^PageMask
	}
	spareSeen := 0
	for i := 0; i < 500; i++ {
		base, n := randBase(), 1+rng.Intn(3)
		f := as.Phys().Alloc()
		for p := 0; p < n; p++ {
			if err := as.Map(base+uint64(p)*PageSize, f, 0); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
		}
		if got := as.MappedPages(); got != 4+n {
			t.Fatalf("cycle %d: mapped %d, want %d", i, got, 4+n)
		}
		if g, _, ok := as.Lookup(base + uint64(n-1)*PageSize); !ok || g != f {
			t.Fatalf("cycle %d: lookup = %v,%v", i, g, ok)
		}
		if err := as.UnmapRegion(base, n, false); err != nil {
			t.Fatal(err)
		}
		as.Phys().Free(f)
		if _, _, ok := as.Lookup(base); ok {
			t.Fatalf("cycle %d: %#x still mapped", i, base)
		}
		spareSeen = max(spareSeen, len(as.spare))
	}
	if spareSeen == 0 || len(as.spare) > maxSpareNodes {
		t.Fatalf("spare list peaked at %d, now %d (cap %d)", spareSeen, len(as.spare), maxSpareNodes)
	}
	if as.MappedPages() != 4 {
		t.Fatalf("mapped %d after cycles, want 4", as.MappedPages())
	}
	for i, f := range frames {
		if g, _, ok := as.Lookup(fixed + uint64(i)*PageSize); !ok || g != f {
			t.Fatalf("fixed page %d: lookup = %v,%v, want %v", i, g, ok, f)
		}
	}

	spare := map[*pte]bool{}
	for _, e := range as.spare {
		if e.child == nil || e.child.used != 0 || e.leaf {
			t.Fatal("spare node is not an empty interior node")
		}
		spare[e] = true
	}
	livePtes, liveTables := map[*pte]bool{}, map[*table]bool{}
	nodes(as.root, numLevels-1, livePtes, liveTables)
	fork := as.Fork(as.Phys().Fork())
	forkPtes, forkTables := map[*pte]bool{}, map[*table]bool{}
	nodes(fork.root, numLevels-1, forkPtes, forkTables)
	for e := range spare {
		if livePtes[e] || liveTables[e.child] {
			t.Fatal("spare node still reachable from the live tree")
		}
		if forkPtes[e] || forkTables[e.child] {
			t.Fatal("fork shares a spare-list node")
		}
	}
	for e := range forkPtes {
		if livePtes[e] {
			t.Fatal("fork shares a live pte with its template")
		}
	}
	if len(fork.spare) != 0 || fork.MappedPages() != 4 {
		t.Fatalf("fork: spare %d, mapped %d", len(fork.spare), fork.MappedPages())
	}

	// Recycled nodes serve the template's next mapping; the fork never
	// sees it.
	base := randBase()
	if err := as.Map(base, frames[0], 0); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := fork.Lookup(base); ok {
		t.Fatal("template mapping visible in fork")
	}
	for i, f := range frames {
		if g, _, ok := fork.Lookup(fixed + uint64(i)*PageSize); !ok || g != f {
			t.Fatalf("fork fixed page %d: lookup = %v,%v", i, g, ok)
		}
	}
}

// TestPhysMemGrowthNotShared: the template's amortized in-place table
// growth after a fork never shows up in the fork's table, and each side
// allocates its own next frames.
func TestPhysMemGrowthNotShared(t *testing.T) {
	p := NewPhysMem()
	p.AllocN(5)
	f := p.Fork()
	if got := cap(f.table()); got != 5 {
		t.Fatalf("fork table cap = %d, want exact length 5", got)
	}
	a, b := p.Alloc(), f.Alloc()
	if a != 5 || b != 5 {
		t.Fatalf("next frames = %d, %d; want 5, 5", a, b)
	}
	p.WritableFrame(a)[0] = 'p'
	f.WritableFrame(b)[0] = 'f'
	if p.Frame(a)[0] != 'p' || f.Frame(b)[0] != 'f' {
		t.Fatal("frame 5 shared between template and fork")
	}
	for i := 0; i < 100; i++ {
		p.Alloc()
	}
	if len(f.table()) != 6 || len(p.table()) != 106 {
		t.Fatalf("table lengths fork=%d template=%d", len(f.table()), len(p.table()))
	}
}

// TestReadIntoStraddleAndFault: ReadInto crosses pages into the caller's
// buffer without allocating, and faults on an unmapped second page.
func TestReadIntoStraddleAndFault(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	const base = KernelBase + 0x200000
	if _, err := as.MapRegion(base, 2, FlagWrite); err != nil {
		t.Fatal(err)
	}
	want := []byte("across the boundary")
	va := base + PageSize - 6
	if err := as.WriteBytes(va, want); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(want))
	if n := testing.AllocsPerRun(50, func() {
		if err := as.ReadInto(dst, va); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ReadInto: %v allocs", n)
	}
	if !bytes.Equal(dst, want) {
		t.Fatalf("ReadInto = %q, want %q", dst, want)
	}
	if err := as.ReadInto(make([]byte, 16), base+2*PageSize-8); err == nil {
		t.Fatal("read into unmapped second page did not fault")
	}
	if _, err := as.ReadBytes(base+2*PageSize-8, 16); err == nil {
		t.Fatal("ReadBytes into unmapped second page did not fault")
	}
}
