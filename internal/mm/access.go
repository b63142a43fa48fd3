package mm

import "encoding/binary"

// ReadBytes copies n bytes starting at va into a fresh slice, honouring
// page permissions and crossing page boundaries.
func (as *AddressSpace) ReadBytes(va uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := as.ReadInto(out, va); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto fills dst with the bytes starting at va, honouring page
// permissions and crossing page boundaries, translating each page once.
// It allocates nothing, so device DMA can snapshot guest memory into
// buffers the device owns. On a fault dst may hold a partial copy.
func (as *AddressSpace) ReadInto(dst []byte, va uint64) error {
	for len(dst) > 0 {
		frame, _, err := as.Translate(va, AccessRead)
		if err != nil {
			return err
		}
		n := copy(dst, as.phys.Frame(frame)[va&PageMask:])
		va += uint64(n)
		dst = dst[n:]
	}
	return nil
}

// WriteBytes stores b at va, honouring page permissions.
func (as *AddressSpace) WriteBytes(va uint64, b []byte) error {
	for len(b) > 0 {
		frame, _, err := as.Translate(va, AccessWrite)
		if err != nil {
			return err
		}
		off := int(va & PageMask)
		chunk := PageSize - off
		if chunk > len(b) {
			chunk = len(b)
		}
		copy(as.phys.WritableFrame(frame)[off:off+chunk], b[:chunk])
		as.phys.NoteWrite(frame)
		va += uint64(chunk)
		b = b[chunk:]
	}
	return nil
}

// WriteBytesForce stores b at va ignoring write protection. It exists for
// the loader, which populates pages before write-protecting them, and for
// run-time patching of already-loaded text (paper Fig. 4); regular
// execution must use WriteBytes.
func (as *AddressSpace) WriteBytesForce(va uint64, b []byte) error {
	for len(b) > 0 {
		frame, _, err := as.Translate(va, AccessRead)
		if err != nil {
			return err
		}
		off := int(va & PageMask)
		chunk := PageSize - off
		if chunk > len(b) {
			chunk = len(b)
		}
		copy(as.phys.WritableFrame(frame)[off:off+chunk], b[:chunk])
		as.phys.NoteWrite(frame)
		va += uint64(chunk)
		b = b[chunk:]
	}
	return nil
}

// Read64 loads a 64-bit little-endian value. Loads from MMIO pages are
// routed to the registered device handler.
func (as *AddressSpace) Read64(va uint64) (uint64, error) {
	frame, flags, err := as.Translate(va, AccessRead)
	if err != nil {
		return 0, err
	}
	if flags&FlagMMIO != 0 {
		if h, off, ok := as.mmioFor(va); ok {
			return h.MMIORead(off), nil
		}
	}
	off := va & PageMask
	if off+8 <= PageSize {
		return binary.LittleEndian.Uint64(as.phys.Frame(frame)[off : off+8]), nil
	}
	var b [8]byte
	if err := as.ReadInto(b[:], va); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Write64 stores a 64-bit little-endian value. Stores to MMIO pages are
// routed to the registered device handler (doorbell writes, etc.).
func (as *AddressSpace) Write64(va uint64, val uint64) error {
	frame, flags, err := as.Translate(va, AccessWrite)
	if err != nil {
		return err
	}
	if flags&FlagMMIO != 0 {
		if h, off, ok := as.mmioFor(va); ok {
			h.MMIOWrite(off, val)
			return nil
		}
	}
	off := va & PageMask
	if off+8 <= PageSize {
		binary.LittleEndian.PutUint64(as.phys.WritableFrame(frame)[off:off+8], val)
		as.phys.NoteWrite(frame)
		return nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	return as.WriteBytes(va, b[:])
}

// Write64Force stores a 64-bit value ignoring write protection — used by
// the loader and re-randomizer to update entries in write-protected GOTs.
func (as *AddressSpace) Write64Force(va uint64, val uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	return as.WriteBytesForce(va, b[:])
}

// Read64Force loads a 64-bit value requiring only that the page is mapped.
// It reads through an on-stack buffer: device register and descriptor
// fetches allocate nothing.
func (as *AddressSpace) Read64Force(va uint64) (uint64, error) {
	var b [8]byte
	if err := as.ReadInto(b[:], va); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}
