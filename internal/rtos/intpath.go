package rtos

import (
	"encoding/binary"

	"repro/internal/isa"
	"repro/internal/machine"
)

// SaveFrame performs the mechanical part of a context save shared by
// the baseline handler and the trusted Int Mux: push r7..r0 below the
// EIP/EFLAGS words the exception engine already pushed, and record the
// frame base in t.SavedSP.
//
// The pushes go through the *checked* bus in the current execution
// context: under TyTAN the Int Mux runs this inside its own protection
// context (whose boot-time grant covers task stacks), and any attempt
// by untrusted code to bank a secure task's context faults — the
// security property of §4 "Interrupting secure tasks". When one cached
// EA-MPU decision covers the whole frame the eight words land in one
// bulk store; otherwise the per-word loop runs, top word first, and
// stops at the first denied word exactly as the hardware would.
func SaveFrame(k *Kernel, t *TCB) error {
	m := k.M
	base := m.Reg(spReg) - isa.NumRegs*4
	regs := m.SaveContext().Regs
	if !m.WriteWords(base, regs[:]) {
		for i := isa.NumRegs - 1; i >= 0; i-- {
			if err := m.Write32(base+uint32(i*4), regs[i]); err != nil {
				return err
			}
		}
	}
	m.SetReg(spReg, base)
	t.SavedSP = base
	return nil
}

// RestoreFrame is the mechanical inverse of SaveFrame: read the frame
// at t.SavedSP through the checked bus (one bulk view when a cached
// decision covers it, word by word otherwise), load it into the CPU,
// unwind SP past the frame and re-enable interrupts.
func RestoreFrame(k *Kernel, t *TCB) error {
	m := k.M
	var frame [contextFrameWords]uint32
	if view, ok := m.ReadView(t.SavedSP, contextFrameBytes); ok {
		for i := range frame {
			frame[i] = binary.LittleEndian.Uint32(view[i*4:])
		}
	} else {
		for i := range frame {
			v, err := m.Read32(t.SavedSP + uint32(i*4))
			if err != nil {
				return err
			}
			frame[i] = v
		}
	}
	var ctx machine.Context
	copy(ctx.Regs[:], frame[:isa.NumRegs])
	ctx.EIP = frame[isa.NumRegs]
	ctx.EFLAGS = frame[isa.NumRegs+1]
	// The restored SP is derived from the frame base, not from the
	// saved r7, so a corrupted frame cannot desynchronize the unwind.
	ctx.Regs[spReg] = t.SavedSP + contextFrameBytes
	m.LoadContext(ctx)
	m.SetInterruptsEnabled(true)
	return nil
}

// BaselinePath is the unmodified-FreeRTOS interrupt path: the plain
// interrupt handler saves the interrupted task's registers to the
// task's stack and later restores them. No register wiping, no entry
// routine — the baseline columns of Tables 2 and 3.
type BaselinePath struct{}

// Save implements InterruptPath (cost: Table 2 baseline, 38 cycles).
func (BaselinePath) Save(k *Kernel, t *TCB) error {
	k.M.Charge(machine.CostStoreContext)
	return SaveFrame(k, t)
}

// Restore implements InterruptPath (cost: Table 3 baseline, 254
// cycles).
func (BaselinePath) Restore(k *Kernel, t *TCB) error {
	k.M.Charge(machine.CostRestoreContext)
	return RestoreFrame(k, t)
}
