// driver-vm: the paper's deployment scenario (§2.8, §1) — a dedicated
// driver VM (Xen driver domain / SAVIOR-style) runs the physical device
// drivers, continuously re-randomized, while application VMs reach the
// hardware only through paravirtualized I/O. The driver VM is "the only
// vulnerable component in the corresponding guest OS", so Adelie's
// re-randomization concentrates exactly where the attack surface is.
//
// The simulation boots the driver VM's kernel with the ENA driver (the
// adapter the paper re-randomizes in the SAVIOR system) plus NVMe, wires
// the NIC to the application side's frontend, pumps paravirt I/O through
// it, and fires a JIT-ROP attack at the driver VM mid-traffic.
package main

import (
	"fmt"
	"log"

	"adelie/internal/attack"
	"adelie/internal/cpu"
	"adelie/internal/drivers"
	"adelie/internal/kernel"
	"adelie/internal/sim"
)

func main() {
	// ---- Driver VM (Dom0-like): owns the hardware. ----
	dvm, err := sim.NewMachine(sim.Config{NumCPUs: 8, Seed: 2022, KASLR: kernel.KASLRFull64})
	if err != nil {
		log.Fatal(err)
	}
	opts := drivers.BuildOpts{
		PIC: true, Retpoline: true, Rerand: true, StackRerand: true, RetEncrypt: true,
	}
	for _, d := range []string{"ena", "nvme"} {
		if _, err := dvm.LoadDriver(d, opts); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := dvm.InitNIC("ena"); err != nil {
		log.Fatal(err)
	}
	if err := dvm.InitNVMe(); err != nil {
		log.Fatal(err)
	}
	dvm.NVMe.Preload(0, []byte("guest block 0"))
	fmt.Println("driver VM: ena + nvme loaded re-randomizable")
	fmt.Printf("  ena movable @ %#x, nvme movable @ %#x\n",
		dvm.Module("ena").Base(), dvm.Module("nvme").Base())

	// ---- Application VM frontend: paravirt I/O rides the wire. ----
	// The app VM never maps driver memory; it exchanges frames with the
	// driver VM through the virtual NIC pair (dvm.Peer is its viewpoint).
	// A ringless adapter only counts what it receives unless asked to
	// keep copies: opt in so the frontend can inspect its queue.
	dvm.Peer.SetHostRxCap(1024)
	buf, err := dvm.K.Kmalloc(2048)
	if err != nil {
		log.Fatal(err)
	}
	xmit, _ := dvm.K.Symbol("ena_xmit")
	read, _ := dvm.K.Symbol("nvme_read")

	res, err := dvm.Run(sim.RunConfig{
		Ops: 2000, Workers: 4, RerandPeriodUs: 200, SyscallCycles: 2200,
		BytesPerOp: 1448,
	}, func(c *cpu.CPU) (uint64, error) {
		// Paravirt block read request arrives from the app VM: the driver
		// VM performs the real NVMe read and ships the data back.
		lat, err := c.Call(read, buf, 0, 512)
		if err != nil {
			return 0, err
		}
		if _, err := c.Call(xmit, buf, 1448, 0); err != nil {
			return 0, err
		}
		return lat, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// The app VM's frontend consumes as it goes: the host-side queue is
	// bounded, so count deliveries from the adapter stats, not the
	// residual queue.
	queued := dvm.Peer.TakeHostFrames()
	fmt.Printf("paravirt I/O: %.0f req/s, %d frames delivered to the app VM (%d still queued), CPU %.2f%%\n",
		res.OpsPerSec, dvm.Peer.RxFrames, len(queued), res.CPUUsagePct)
	fmt.Printf("re-randomizer fired %d times during the run\n", res.RerandSteps)

	// ---- The attack: a compromised app VM hits the driver VM's ENA. ----
	fmt.Println("\napp VM attempts JIT-ROP against the driver VM's ena driver:")
	mod := dvm.Module("ena")
	out := attack.SimulateJITROP(dvm.K, mod, attack.DefaultJITROP, 10_000, func() error {
		if _, err := dvm.R.Step(); err != nil {
			return err
		}
		dvm.K.SMR.Flush()
		return nil
	})
	fmt.Printf("  success=%v (%s)\n", out.Succeeded, out.Reason)
	switch {
	case !out.Succeeded && out.GadgetsFound > 0 && len(out.Reason) > 8 && out.Reason[:8] == "no chain":
		fmt.Println("  return-address encryption starved the driver of usable pop gadgets")
	case !out.Succeeded:
		fmt.Println("  the driver VM moved its driver mid-attack; the app VMs never noticed")
	}
	// Traffic still flows after the attempt.
	if _, err := dvm.K.CPU(0).Call(read, buf, 0, 512); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  post-attack block read: OK")
}
