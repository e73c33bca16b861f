package machine

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/eampu"
	"repro/internal/isa"
)

// Differential tests for the word-precise compiled-code invalidation
// and the all-or-nothing bulk transfers (ReadView, WriteWords): every
// architecturally visible outcome — RAM contents, errors, violation
// counts, registers — must equal the per-word reference path on all
// three engines.

// TestSuperblockWordPreciseInvalidation: a store into a granule that
// holds compiled code, but outside the words any block covers, leaves
// the compiled blocks (and every other cache) valid; a store into block
// bytes still splits the block and invalidates.
func TestSuperblockWordPreciseInvalidation(t *testing.T) {
	// Two blocks around a data word: the word lies inside the compiled
	// address range and its granule, but in no block.
	const base = 0x2000
	const scratch = base + 4*4
	var p isa.Program
	p.Emit(isa.Instruction{Op: isa.OpST, Rd: isa.R2, Rs: isa.R3, Imm: 0}) // word 0: runtime target
	p.Emit(isa.Instruction{Op: isa.OpNOP})                                // word 1
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: 111})          // word 2: patch target
	p.Emit(isa.Instruction{Op: isa.OpJMP, Imm: 1})                        // word 3: over the data word
	p.Emit(isa.Instruction{Op: isa.OpNOP})                                // word 4: data (scratch)
	p.Emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R1, Imm: 0})           // word 5: second block
	p.Emit(isa.Instruction{Op: isa.OpHLT})

	r := newTriRig(64 << 10)
	r.trace()
	r.each(func(m *Machine) {
		m.LoadBytes(base, p.Bytes())
		m.SetReg(isa.SP, 0x8000)
		m.SetReg(isa.R3, patchedWord())
	})
	pass := func(target uint32) {
		t.Helper()
		r.each(func(m *Machine) {
			m.SetEIP(base)
			m.SetReg(isa.R2, target)
			m.SetReg(isa.R1, 0)
		})
		r.runSlices(t, []uint64{1 << 20}, 10)
	}
	for i := 0; i < sbCompileThreshold+1; i++ {
		pass(0x9000)
	}
	warm := r.sb.Stats()
	if warm.SBHits == 0 {
		t.Fatalf("block never compiled during warm-up: %+v", warm)
	}

	// Data store sharing the block's granule: no invalidation at all.
	for i := 0; i < 4; i++ {
		pass(scratch)
	}
	st := r.sb.Stats()
	if st.GenBumps != warm.GenBumps || st.SBInvalidations != warm.SBInvalidations {
		t.Fatalf("store outside block bytes invalidated: gen bumps %d -> %d, sb invalidations %d -> %d",
			warm.GenBumps, st.GenBumps, warm.SBInvalidations, st.SBInvalidations)
	}
	if st.SBHits <= warm.SBHits || st.SBCompiles != warm.SBCompiles {
		t.Fatalf("compiled block not reused across granule-sharing stores: %+v -> %+v", warm, st)
	}
	if got := r.sb.Reg(isa.R1); got != 111 {
		t.Fatalf("r1 = %d, want 111", got)
	}

	// Store into the block's own bytes: split, invalidate, see the patch.
	pass(base + 2*4)
	if got := r.sb.Reg(isa.R1); got != 222 {
		t.Fatalf("patched r1 = %d, want 222", got)
	}
	if after := r.sb.Stats(); after.SBInvalidations != st.SBInvalidations+1 || after.GenBumps <= st.GenBumps {
		t.Fatalf("store into block bytes did not invalidate: %+v -> %+v", st, after)
	}
}

func TestGranuleWords(t *testing.T) {
	g := uint32(3)
	lo := RAMBase + g<<sbPageBits
	cases := []struct {
		lo, hi uint32
		want   uint64
	}{
		{lo, lo, 1},
		{lo, lo + 3, 1},
		{lo + 3, lo + 4, 3},
		{lo + 252, lo + 255, 1 << 63},
		{lo - 8, lo + 5, 3},
		{lo + 250, lo + 300, 3 << 62},
		{lo - 100, lo + 400, ^uint64(0)},
		{lo - 100, lo - 1, 0},
		{lo + 256, lo + 260, 0},
	}
	for _, c := range cases {
		if got := granuleWords(g, c.lo, c.hi); got != c.want {
			t.Errorf("granuleWords(%#x, %#x) = %#x, want %#x", c.lo, c.hi, got, c.want)
		}
	}
}

// Layout of the bulk-transfer rig: code at bulkPC may read and write
// [bulkLo, bulkMid); [bulkMid, bulkHi) belongs to another code region,
// so a range crossing bulkMid straddles an EA-MPU span boundary and
// faults part-way.
const (
	bulkPC  = 0x2000
	bulkLo  = 0x4000
	bulkMid = 0x4100
	bulkHi  = 0x4200
	bulkRAM = 64 << 10
)

func newBulkMachine(fast, sb bool) *Machine {
	m := New(bulkRAM)
	m.FastPath, m.Superblocks = fast, sb
	own := eampu.Region{Start: bulkPC, Size: 0x100}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(m.MPU.Install(0, eampu.Rule{Code: own, Data: eampu.Region{Start: bulkLo, Size: bulkMid - bulkLo}, Perm: eampu.PermRW, Owner: 1}))
	must(m.MPU.Install(1, eampu.Rule{Code: eampu.Region{Start: 0x3000, Size: 0x100}, Data: eampu.Region{Start: bulkMid, Size: bulkHi - bulkMid}, Perm: eampu.PermRW, Owner: 2}))
	m.MPU.Enable()
	for a := uint32(bulkLo - 0x100); a < bulkHi+0x100; a += 4 {
		m.RawWrite32(a, a*2654435761)
	}
	for a := uint32(bulkRAM + RAMBase - 0x100); a < bulkRAM+RAMBase; a += 4 {
		m.RawWrite32(a, a*2654435761)
	}
	return m
}

// The transfer shapes of the trusted stack's callers, each with its
// bulk attempt and per-word fallback exactly as the caller writes it.

// saveFrame mirrors rtos.SaveFrame: eight words below top, top first.
func saveFrame(m *Machine, top uint32) error {
	base := top - 32
	var regs [8]uint32
	for i := range regs {
		regs[i] = 0xA0 + uint32(i)
	}
	if m.WriteWords(base, regs[:]) {
		return nil
	}
	for i := 7; i >= 0; i-- {
		if err := m.Write32(base+uint32(i*4), regs[i]); err != nil {
			return err
		}
	}
	return nil
}

// restoreFrame mirrors rtos.RestoreFrame: ten words from base upward.
func restoreFrame(m *Machine, base uint32) ([10]uint32, error) {
	var frame [10]uint32
	if view, ok := m.ReadView(base, 40); ok {
		for i := range frame {
			frame[i] = uint32(view[i*4]) | uint32(view[i*4+1])<<8 | uint32(view[i*4+2])<<16 | uint32(view[i*4+3])<<24
		}
		return frame, nil
	}
	for i := range frame {
		v, err := m.Read32(base + uint32(i*4))
		if err != nil {
			return frame, err
		}
		frame[i] = v
	}
	return frame, nil
}

// readBlock mirrors the RTM's measurement read: words, then a byte tail.
func readBlock(m *Machine, addr, n uint32) ([]byte, error) {
	block := make([]byte, n)
	if view, ok := m.ReadView(addr, n); ok {
		copy(block, view)
		return block, nil
	}
	var i uint32
	for ; i+4 <= n; i += 4 {
		v, err := m.Read32(addr + i)
		if err != nil {
			return block, err
		}
		block[i], block[i+1], block[i+2], block[i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	for ; i < n; i++ {
		b, err := m.Read8(addr + i)
		if err != nil {
			return block, err
		}
		block[i] = b
	}
	return block, nil
}

// writeMailbox mirrors the IPC proxy's delivery: seven words upward.
func writeMailbox(m *Machine, box uint32) error {
	words := [7]uint32{1, 2, 3, 4, 5, 6, 7}
	if m.WriteWords(box, words[:]) {
		return nil
	}
	for i, w := range words {
		if err := m.Write32(box+uint32(i*4), w); err != nil {
			return err
		}
	}
	return nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestBulkTransferDifferential runs every transfer shape at addresses
// inside one span, straddling the EA-MPU span boundary, straddling the
// end of RAM and past it, on the reference, fast-path and superblock
// engines, and requires identical errors, memory, violation counts and
// registers.
func TestBulkTransferDifferential(t *testing.T) {
	ramEnd := uint32(RAMBase + bulkRAM)
	type op struct {
		name string
		addr uint32
		run  func(m *Machine, addr uint32) string
	}
	var ops []op
	for _, a := range []uint32{bulkLo + 0x40, bulkMid - 16, bulkMid + 16, ramEnd - 12, ramEnd + 8} {
		ops = append(ops,
			op{"save-frame", a, func(m *Machine, a uint32) string { return errText(saveFrame(m, a)) }},
			op{"restore-frame", a, func(m *Machine, a uint32) string {
				f, err := restoreFrame(m, a)
				return fmt.Sprintf("%v %s", f, errText(err))
			}},
			op{"read-block", a, func(m *Machine, a uint32) string {
				b, err := readBlock(m, a, 61)
				return fmt.Sprintf("%x %s", b, errText(err))
			}},
			op{"write-mailbox", a, func(m *Machine, a uint32) string { return errText(writeMailbox(m, a)) }},
		)
	}
	for _, o := range ops {
		t.Run(fmt.Sprintf("%s@%#x", o.name, o.addr), func(t *testing.T) {
			engines := []struct {
				name     string
				fast, sb bool
			}{{"ref", false, false}, {"fast", true, false}, {"sb", true, true}}
			var want string
			var wantRAM []byte
			var wantViol uint64
			var wantRegs Context
			for i, e := range engines {
				m := newBulkMachine(e.fast, e.sb)
				m.SetReg(isa.R3, 0x33)
				var got string
				m.WithExecContext(bulkPC, func() { got = o.run(m, o.addr) })
				ram, _ := m.ReadBytes(RAMBase, bulkRAM)
				if i == 0 {
					want, wantRAM, wantViol, wantRegs = got, ram, m.MPU.Violations(), m.SaveContext()
					continue
				}
				if got != want {
					t.Errorf("%s: outcome %q, ref %q", e.name, got, want)
				}
				if !bytes.Equal(ram, wantRAM) {
					t.Errorf("%s: memory differs from ref", e.name)
				}
				if v := m.MPU.Violations(); v != wantViol {
					t.Errorf("%s: %d violations, ref %d", e.name, v, wantViol)
				}
				if m.SaveContext() != wantRegs {
					t.Errorf("%s: registers differ from ref", e.name)
				}
			}
		})
	}
}

// TestBulkTransferAllOrNothing: a refused bulk attempt touches nothing
// (no bytes, no violation count), a covered one lands whole, and the
// reference engine never takes the bulk path.
func TestBulkTransferAllOrNothing(t *testing.T) {
	m := newBulkMachine(true, true)
	before, _ := m.ReadBytes(bulkMid-16, 32)
	m.WithExecContext(bulkPC, func() {
		if m.WriteWords(bulkMid-16, make([]uint32, 8)) {
			t.Error("WriteWords across a span boundary succeeded")
		}
		if _, ok := m.ReadView(bulkMid-16, 32); ok {
			t.Error("ReadView across a span boundary succeeded")
		}
		if _, ok := m.ReadView(bulkMid, 4); ok {
			t.Error("ReadView of denied memory succeeded")
		}
	})
	after, _ := m.ReadBytes(bulkMid-16, 32)
	if !bytes.Equal(before, after) || m.MPU.Violations() != 0 {
		t.Errorf("refused bulk transfer touched memory or counted a violation (violations %d)", m.MPU.Violations())
	}
	m.WithExecContext(bulkPC, func() {
		if !m.WriteWords(bulkLo, []uint32{7, 8}) {
			t.Error("WriteWords inside one allowed span refused")
		}
	})
	if v, _ := m.RawRead32(bulkLo + 4); v != 8 {
		t.Errorf("bulk write landed %#x, want 8", v)
	}
	ref := newBulkMachine(false, false)
	ref.WithExecContext(bulkPC, func() {
		if ref.WriteWords(bulkLo, []uint32{1}) {
			t.Error("reference engine took the bulk path")
		}
	})
}
