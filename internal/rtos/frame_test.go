package rtos

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/eampu"
	"repro/internal/isa"
	"repro/internal/machine"
)

// TestFrameBulkDifferential drives the real SaveFrame and RestoreFrame
// with frames inside one EA-MPU span, straddling a span boundary (the
// upper words allowed, the lower ones claimed by another region) and
// straddling the end of RAM, on the reference, fast-path and superblock
// engines: errors, memory, violation counts and registers must match
// the reference exactly, whichever path — bulk or per word — ran.
func TestFrameBulkDifferential(t *testing.T) {
	const (
		pc   = 0x2000
		own  = 0x4000 // [own, mid) writable from pc
		mid  = 0x4100 // [mid, top) claimed by another code region
		top  = 0x4200
		size = 64 << 10
	)
	ramEnd := uint32(machine.RAMBase + size)
	newMachine := func(fast, sb bool) *machine.Machine {
		m := machine.New(size)
		m.FastPath, m.Superblocks = fast, sb
		m.MPU.Install(0, eampu.Rule{Code: eampu.Region{Start: pc, Size: 0x100}, Data: eampu.Region{Start: own, Size: mid - own}, Perm: eampu.PermRW, Owner: 1})
		m.MPU.Install(1, eampu.Rule{Code: eampu.Region{Start: 0x3000, Size: 0x100}, Data: eampu.Region{Start: mid, Size: top - mid}, Perm: eampu.PermRW, Owner: 2})
		m.MPU.Enable()
		for a := uint32(own); a < top; a += 4 {
			m.RawWrite32(a, a*2654435761)
		}
		for i := 0; i < isa.NumRegs; i++ {
			m.SetReg(isa.Reg(i), 0x100+uint32(i))
		}
		return m
	}
	// Frame tops/bases: inside [own, mid), straddling mid from each
	// side, and at the end of RAM.
	for _, at := range []uint32{own + 0x80, mid + 16, mid - 8, ramEnd - 16, ramEnd + 8} {
		for _, restore := range []bool{false, true} {
			t.Run(fmt.Sprintf("restore=%v@%#x", restore, at), func(t *testing.T) {
				var want string
				var wantRAM []byte
				var wantViol uint64
				var wantCtx machine.Context
				for i, e := range []struct{ fast, sb bool }{{false, false}, {true, false}, {true, true}} {
					m := newMachine(e.fast, e.sb)
					k := &Kernel{M: m}
					tcb := &TCB{SavedSP: at}
					m.SetReg(spReg, at)
					var err error
					m.WithExecContext(pc, func() {
						if restore {
							err = RestoreFrame(k, tcb)
						} else {
							err = SaveFrame(k, tcb)
						}
					})
					got := fmt.Sprintf("err=%v saved=%#x", err, tcb.SavedSP)
					ram, _ := m.ReadBytes(machine.RAMBase, size)
					if i == 0 {
						want, wantRAM, wantViol, wantCtx = got, ram, m.MPU.Violations(), m.SaveContext()
						continue
					}
					if got != want {
						t.Errorf("engine %d: %s, ref %s", i, got, want)
					}
					if !bytes.Equal(ram, wantRAM) {
						t.Errorf("engine %d: memory differs from ref", i)
					}
					if v := m.MPU.Violations(); v != wantViol {
						t.Errorf("engine %d: %d violations, ref %d", i, v, wantViol)
					}
					if m.SaveContext() != wantCtx {
						t.Errorf("engine %d: registers differ from ref", i)
					}
				}
			})
		}
	}
}
