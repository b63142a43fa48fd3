package devices

import (
	"bytes"
	"sync"
	"testing"

	"adelie/internal/mm"
)

// DMA data-path contract: steady-state transfers allocate nothing, the
// reused TX snapshot buffer never carries bytes from one frame into the
// next (or between concurrent doorbells), and in-place media writes stay
// private to a forked controller.

// putTx programs TX descriptor slot with a frame of payload at buf.
func putTx(t testing.TB, as *mm.AddressSpace, txRing, slot, buf uint64, payload []byte) {
	t.Helper()
	if err := as.WriteBytes(buf, payload); err != nil {
		t.Fatal(err)
	}
	if err := as.Write64(txRing+slot*16, buf); err != nil {
		t.Fatal(err)
	}
	if err := as.Write64(txRing+slot*16+8, uint64(len(payload))); err != nil {
		t.Fatal(err)
	}
}

// nvmeAt returns a controller with its queues programmed at base (SQ),
// base+0x1000 (CQ) and the DMA buffer at base+0x2000.
func nvmeAt(t testing.TB, as *mm.AddressSpace, base uint64) (d *NVMe, sq, buf uint64) {
	t.Helper()
	d = NewNVMe(as)
	d.MMIOWrite(NVMeRegSQBase, base)
	d.MMIOWrite(NVMeRegCQBase, base+0x1000)
	return d, base, base + 0x2000
}

// submit writes one SQ entry at slot 0 and rings the doorbell.
func submit(t testing.TB, as *mm.AddressSpace, d *NVMe, sq, op, lba, count, buf uint64) {
	t.Helper()
	if err := as.WriteBytes(sq, EncodeSQEntry(op, lba, count, buf)); err != nil {
		t.Fatal(err)
	}
	d.MMIOWrite(NVMeRegDoorbell, 0)
}

// TestDMAPathsAllocateNothing gates the steady-state device I/O paths at
// zero heap allocations per transfer (after the first transfer has sized
// the reused buffers).
func TestDMAPathsAllocateNothing(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 1448)

	t.Run("tx_to_peer_sink", func(t *testing.T) {
		as, a, b, base := setupNICPair(t)
		putTx(t, as, base, 0, base+0x2000, payload)
		if n := testing.AllocsPerRun(100, func() { a.MMIOWrite(NICRegTxDoorbell, 0) }); n != 0 {
			t.Fatalf("TX to peer sink: %v allocs per frame", n)
		}
		if b.RxFrames == 0 || b.HostConsumed != b.RxFrames || len(b.TakeHostFrames()) != 0 {
			t.Fatalf("sink rx=%d consumed=%d: not a counting sink", b.RxFrames, b.HostConsumed)
		}
	})

	t.Run("tx_to_rx_ring", func(t *testing.T) {
		as, n, rxRing := ringNIC(t, 1)
		txRing := rxRing - 0x1000
		n.MMIOWrite(NICRegTxRing, txRing)
		putTx(t, as, txRing, 0, txRing+0x2000, payload)
		allocs := testing.AllocsPerRun(100, func() {
			n.MMIOWrite(NICRegTxDoorbell, 0)
			_ = as.Write64(rxRing+8, 0) // the driver frees the slot
		})
		if allocs != 0 {
			t.Fatalf("TX to RX ring: %v allocs per frame", allocs)
		}
		if n.Dropped != 0 || n.RxFrames != n.TxFrames {
			t.Fatalf("rx=%d tx=%d dropped=%d", n.RxFrames, n.TxFrames, n.Dropped)
		}
	})

	t.Run("nvme_read", func(t *testing.T) {
		as, base := testAS(t)
		d, sq, buf := nvmeAt(t, as, base)
		d.Preload(9, []byte("block"))
		if err := as.WriteBytes(sq, EncodeSQEntry(NVMeCmdRead, 9, 4096, buf)); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { d.MMIOWrite(NVMeRegDoorbell, 0) }); n != 0 {
			t.Fatalf("NVMe read: %v allocs per command", n)
		}
	})

	t.Run("nvme_write_overwrite", func(t *testing.T) {
		as, base := testAS(t)
		d, sq, buf := nvmeAt(t, as, base)
		if err := as.WriteBytes(sq, EncodeSQEntry(NVMeCmdWrite, 4, 2048, buf)); err != nil {
			t.Fatal(err)
		}
		d.MMIOWrite(NVMeRegDoorbell, 0) // first write creates the blocks
		if n := testing.AllocsPerRun(100, func() { d.MMIOWrite(NVMeRegDoorbell, 0) }); n != 0 {
			t.Fatalf("NVMe overwrite: %v allocs per command", n)
		}
	})

	t.Run("read64force", func(t *testing.T) {
		as, base := testAS(t)
		var sink uint64
		// In-page and page-straddling loads.
		for _, va := range []uint64{base + 8, base + mm.PageSize - 4} {
			if n := testing.AllocsPerRun(100, func() { sink, _ = as.Read64Force(va) }); n != 0 {
				t.Fatalf("Read64Force(%#x): %v allocs", va, n)
			}
		}
		_ = sink
	})
}

// TestNICTransmitStraddlesPage: a TX frame spanning two pages arrives
// whole.
func TestNICTransmitStraddlesPage(t *testing.T) {
	as, a, b, base := setupNICPair(t)
	b.SetHostRxCap(4)
	payload := []byte("0123456789abcdefghij")
	putTx(t, as, base, 0, base+3*mm.PageSize-7, payload)
	a.MMIOWrite(NICRegTxDoorbell, 0)
	frames := b.TakeHostFrames()
	if len(frames) != 1 || !bytes.Equal(frames[0], payload) {
		t.Fatalf("peer frames = %q, want [%q]", frames, payload)
	}
}

// TestNICTransmitFaultOnSecondPage: a frame whose second page is
// unmapped is dropped without delivering anything, and the bytes the
// fault left half-copied in the reused TX buffer never surface in the
// next frame.
func TestNICTransmitFaultOnSecondPage(t *testing.T) {
	as, a, b, base := setupNICPair(t)
	b.SetHostRxCap(4)
	const n = 16
	end := base + 16*mm.PageSize // testAS maps 16 pages
	bad := bytes.Repeat([]byte{'X'}, n/2)
	if err := as.WriteBytes(end-n/2, bad); err != nil {
		t.Fatal(err)
	}
	if err := as.Write64(base, end-n/2); err != nil {
		t.Fatal(err)
	}
	if err := as.Write64(base+8, n); err != nil {
		t.Fatal(err)
	}
	a.MMIOWrite(NICRegTxDoorbell, 0)
	if a.Dropped != 1 || a.TxFrames != 0 || b.RxFrames != 0 {
		t.Fatalf("faulting frame: dropped=%d tx=%d peer rx=%d", a.Dropped, a.TxFrames, b.RxFrames)
	}

	good := bytes.Repeat([]byte{'g'}, n)
	putTx(t, as, base, 1, base+0x2000, good)
	a.MMIOWrite(NICRegTxDoorbell, 1)
	frames := b.TakeHostFrames()
	if len(frames) != 1 || !bytes.Equal(frames[0], good) {
		t.Fatalf("next frame = %q, want [%q]", frames, good)
	}
}

// TestNVMeForkDMAIsolation: a forked controller's DMA writes land in the
// fork's memory only, and its in-place media overwrites (including a
// short write that zero-fills the block's tail) leave the template's
// media untouched.
func TestNVMeForkDMAIsolation(t *testing.T) {
	as, base := testAS(t)
	d, sq, buf := nvmeAt(t, as, base)
	tmpl := bytes.Repeat([]byte{'T'}, 512)
	d.Preload(3, tmpl)
	d.Preload(5, []byte("read me"))

	fas := as.Fork(as.Phys().Fork())
	fd := d.CloneFor(fas)

	// Short write over an existing block, in the fork.
	if err := fas.WriteBytes(buf, []byte("fork data")); err != nil {
		t.Fatal(err)
	}
	submit(t, fas, fd, sq, NVMeCmdWrite, 3, 9, buf)
	want := make([]byte, 512)
	copy(want, "fork data")
	if got := fd.ReadBlockDirect(3); !bytes.Equal(got, want) {
		t.Fatalf("fork block 3 = %q..., want zero-filled tail", got[:16])
	}
	if got := d.ReadBlockDirect(3); !bytes.Equal(got, tmpl) {
		t.Fatalf("template block 3 changed to %q...", got[:16])
	}

	// Read DMA into fork memory only.
	buf2 := base + 0x3000
	submit(t, fas, fd, sq, NVMeCmdRead, 5, 512, buf2)
	if got, _ := fas.ReadBytes(buf2, 7); string(got) != "read me" {
		t.Fatalf("fork DMA buffer = %q", got)
	}
	if got, _ := as.ReadBytes(buf2, 7); !bytes.Equal(got, make([]byte, 7)) {
		t.Fatalf("template memory written by fork DMA: %q", got)
	}
	if st, _ := as.Read64(base + 0x1000); st != 0 {
		t.Fatalf("template CQ status = %d after fork completions", st)
	}
	if d.Reads != 0 || d.Writes != 0 {
		t.Fatalf("template counters moved: reads=%d writes=%d", d.Reads, d.Writes)
	}
}

// TestNICConcurrentDoorbells: two lanes ring TX doorbells on one adapter
// at once. Every frame must arrive whole and unmixed, whether it loops
// back into the sender's RX ring or crosses to a capturing peer; under
// -race this also proves the reused TX buffer is never shared.
func TestNICConcurrentDoorbells(t *testing.T) {
	const perLane = 200
	lanes := [][]byte{bytes.Repeat([]byte{'A'}, 300), bytes.Repeat([]byte{'B'}, 200)}
	uniform := func(f []byte) bool { return bytes.Equal(f, lanes[0]) || bytes.Equal(f, lanes[1]) }
	run := func(t *testing.T, as *mm.AddressSpace, n *NIC, txRing, base uint64) {
		for i, p := range lanes {
			putTx(t, as, txRing, uint64(i), base+0x2000+uint64(i)*0x800, p)
		}
		var wg sync.WaitGroup
		for i := range lanes {
			wg.Add(1)
			go func(slot uint64) {
				defer wg.Done()
				for j := 0; j < perLane; j++ {
					n.MMIOWrite(NICRegTxDoorbell, slot)
				}
			}(uint64(i))
		}
		wg.Wait()
		if n.TxFrames != perLane*uint64(len(lanes)) {
			t.Fatalf("tx frames = %d", n.TxFrames)
		}
	}

	t.Run("peer", func(t *testing.T) {
		as, a, b, base := setupNICPair(t)
		b.SetHostRxCap(4 * perLane)
		run(t, as, a, base, base)
		frames := b.TakeHostFrames()
		if len(frames) != 2*perLane {
			t.Fatalf("peer captured %d frames, want %d", len(frames), 2*perLane)
		}
		for i, f := range frames {
			if !uniform(f) {
				t.Fatalf("frame %d mixes lanes: %q", i, f)
			}
		}
	})

	t.Run("loopback", func(t *testing.T) {
		as, n, rxRing := ringNIC(t, 8)
		txRing := rxRing - 0x1000
		n.MMIOWrite(NICRegTxRing, txRing)
		run(t, as, n, txRing, txRing)
		if n.RxFrames != 8 || n.RxFrames+n.Dropped != n.TxFrames {
			t.Fatalf("rx=%d dropped=%d tx=%d", n.RxFrames, n.Dropped, n.TxFrames)
		}
		for slot := uint64(0); slot < 8; slot++ {
			bufVA, _ := as.Read64(rxRing + slot*16)
			length, _ := as.Read64(rxRing + slot*16 + 8)
			f, err := as.ReadBytes(bufVA, int(length))
			if err != nil || !uniform(f) {
				t.Fatalf("ring slot %d mixes lanes (%v): %q", slot, err, f)
			}
		}
	})
}

// BenchmarkNICTransmit measures one 1448-byte TX doorbell into a
// counting peer sink: descriptor fetch, frame snapshot, delivery.
func BenchmarkNICTransmit(b *testing.B) {
	as, a, _, base := setupNICPair(b)
	putTx(b, as, base, 0, base+0x2000, bytes.Repeat([]byte{0x5a}, 1448))
	b.ReportAllocs()
	b.SetBytes(1448)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MMIOWrite(NICRegTxDoorbell, 0)
	}
}

// BenchmarkNVMeRead measures one cache-hit 512-byte NVMe read: SQ fetch,
// media copy into the staging buffer, DMA into guest memory, completion.
func BenchmarkNVMeRead(b *testing.B) {
	as, base := testAS(b)
	d, sq, buf := nvmeAt(b, as, base)
	d.Preload(9, []byte("block"))
	submit(b, as, d, sq, NVMeCmdRead, 9, 512, buf)
	b.ReportAllocs()
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.MMIOWrite(NVMeRegDoorbell, 0)
	}
}
