package devices

import (
	"fmt"
	"testing"

	"adelie/internal/bus"
	"adelie/internal/mm"
)

// irqNIC attaches a ring NIC to a bus so it gets a line, and returns the
// controller for assertions. now is mutable through the returned setter.
func irqNIC(t *testing.T, ringLen uint64) (*mm.AddressSpace, *NIC, *bus.Bus, uint64) {
	t.Helper()
	as := mm.NewAddressSpace(mm.NewPhysMem())
	base := mm.KernelBase + 0x100000
	if _, err := as.MapRegion(base, 64, mm.FlagWrite); err != nil {
		t.Fatal(err)
	}
	b := bus.New(as, mm.KernelBase+0x7_0000_0000)
	n := NewNIC(as)
	n.Name = "nic0"
	if _, err := b.Attach(n); err != nil {
		t.Fatal(err)
	}
	rxRing := base + 0x1000
	n.MMIOWrite(NICRegRxRing, rxRing)
	n.MMIOWrite(NICRegRingLen, ringLen)
	for i := uint64(0); i < ringLen; i++ {
		if err := as.Write64(rxRing+i*16, base+0x4000+i*0x800); err != nil {
			t.Fatal(err)
		}
	}
	return as, n, b, rxRing
}

// TestNICAssertsPerFrameByDefault: with no coalescing configured, every
// ring delivery raises the line once.
func TestNICAssertsPerFrameByDefault(t *testing.T) {
	_, n, b, _ := irqNIC(t, 8)
	line := n.IRQLine()
	if line != 0 {
		t.Fatalf("line = %d, want 0", line)
	}
	for i := 0; i < 3; i++ {
		n.Deliver([]byte(fmt.Sprintf("f%d", i)))
	}
	if got := b.IC().Raised(line); got != 3 {
		t.Fatalf("raised = %d, want 3", got)
	}
	if n.IRQsAsserted != 3 {
		t.Fatalf("IRQsAsserted = %d", n.IRQsAsserted)
	}
	// All three raises coalesce into one pending delivery.
	if p := b.IC().TakePending(); len(p) != 1 || p[0].Line != line {
		t.Fatalf("pending = %+v", p)
	}
}

// TestNICCoalescingFrameThreshold: with maxFrames=4, three frames stay
// silent; the fourth asserts, covering all four.
func TestNICCoalescingFrameThreshold(t *testing.T) {
	_, n, b, _ := irqNIC(t, 8)
	n.SetCoalescing(4, 1_000_000)
	for i := 0; i < 3; i++ {
		n.Deliver([]byte("x"))
	}
	if got := b.IC().Raised(n.IRQLine()); got != 0 {
		t.Fatalf("asserted below threshold: %d", got)
	}
	n.Deliver([]byte("x"))
	if got := b.IC().Raised(n.IRQLine()); got != 1 {
		t.Fatalf("raised = %d, want 1", got)
	}
}

// TestNICCoalescingDelayFlushOnTick: below the frame threshold, the line
// asserts at a clock boundary once the oldest frame has waited past the
// delay, stamping pendingSince with the arrival-time clock value.
func TestNICCoalescingDelayFlushOnTick(t *testing.T) {
	_, n, b, _ := irqNIC(t, 8)
	n.SetCoalescing(16, 500)
	b.SetNow(1000)
	n.Deliver([]byte("x"))
	n.Tick(1400, false) // 400 < 500: not yet
	if got := b.IC().Raised(n.IRQLine()); got != 0 {
		t.Fatalf("asserted before delay: %d", got)
	}
	n.Tick(1500, false)
	p := b.IC().TakePending()
	if len(p) != 1 || p[0].Since != 1000 {
		t.Fatalf("pending = %+v, want since=1000", p)
	}
	// Force tick flushes regardless of thresholds.
	n.Deliver([]byte("y"))
	n.Tick(1501, true)
	if got := b.IC().Raised(n.IRQLine()); got != 2 {
		t.Fatalf("force tick did not flush: raised=%d", got)
	}
}

// TestNICMaskDefersAndUnmaskReasserts: NAPI discipline — while masked,
// deliveries accumulate silently; unmasking with pending frames
// re-asserts immediately so no work goes unsignalled.
func TestNICMaskDefersAndUnmaskReasserts(t *testing.T) {
	_, n, b, _ := irqNIC(t, 8)
	n.MMIOWrite(NICRegIntCtl, 1) // mask
	if n.MMIORead(NICRegIntCtl) != 1 {
		t.Fatal("mask state not readable")
	}
	n.Deliver([]byte("a"))
	n.Deliver([]byte("b"))
	if got := b.IC().Raised(n.IRQLine()); got != 0 {
		t.Fatalf("masked NIC asserted %d times", got)
	}
	n.MMIOWrite(NICRegIntCtl, 0) // unmask → re-assert
	if got := b.IC().Raised(n.IRQLine()); got != 1 {
		t.Fatalf("unmask re-assert: raised=%d, want 1", got)
	}
	// Nothing pending after the re-assert: a further unmask is silent.
	n.MMIOWrite(NICRegIntCtl, 1)
	n.MMIOWrite(NICRegIntCtl, 0)
	if got := b.IC().Raised(n.IRQLine()); got != 1 {
		t.Fatalf("spurious re-assert: raised=%d", got)
	}
}

// TestNICNoIRQWithoutBus: an unattached NIC (no line wired) delivers
// without asserting — the pre-bus polling behavior.
func TestNICNoIRQWithoutBus(t *testing.T) {
	_, n, _ := ringNIC(t, 4)
	n.Deliver([]byte("quiet"))
	if n.IRQsAsserted != 0 {
		t.Fatal("lineless NIC asserted an IRQ")
	}
}

// TestHostRxCapConsumesOverflow: the opt-in load-generator capture
// queue is bounded (compaction amortized at 2×cap); overflow frames
// count as consumed, counters keep counting, and the stored tail is the
// most recent frames.
func TestHostRxCapConsumesOverflow(t *testing.T) {
	as := mm.NewAddressSpace(mm.NewPhysMem())
	n := NewNIC(as) // no ring: host-driven side
	n.SetHostRxCap(4)
	const total = 13 // trims at deliveries 8 and 12, then one more lands
	for i := 0; i < total; i++ {
		n.Deliver([]byte(fmt.Sprintf("f%02d", i)))
	}
	if n.RxFrames != total {
		t.Fatalf("RxFrames = %d, want %d", n.RxFrames, total)
	}
	frames := n.TakeHostFrames()
	if len(frames) >= 8 { // bounded below 2×cap
		t.Fatalf("stored = %d, cap 4 not enforced", len(frames))
	}
	if n.HostConsumed+uint64(len(frames)) != total {
		t.Fatalf("consumed %d + stored %d != %d", n.HostConsumed, len(frames), total)
	}
	if got := string(frames[len(frames)-1]); got != "f12" {
		t.Fatalf("newest kept frame = %q, want f12", got)
	}
	if got := string(frames[0]); got != fmt.Sprintf("f%02d", n.HostConsumed) {
		t.Fatalf("oldest kept frame = %q with %d consumed", got, n.HostConsumed)
	}

	// Turning capture off counts what is still stored as consumed and
	// stores nothing more.
	n.Deliver([]byte("kept"))
	n.SetHostRxCap(0)
	n.Deliver([]byte("counted"))
	if len(n.TakeHostFrames()) != 0 || n.HostConsumed+uint64(len(frames)) != n.RxFrames {
		t.Fatalf("capture off: consumed %d + taken %d != rx %d", n.HostConsumed, len(frames), n.RxFrames)
	}
}
