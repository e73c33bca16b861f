package loader

import (
	"errors"
	"fmt"

	"repro/internal/eampu"
	"repro/internal/machine"
	"repro/internal/telf"
)

// Memory is the slice of the machine the loader needs. *machine.Machine
// implements it; tests substitute lighter fakes.
type Memory interface {
	LoadBytes(addr uint32, b []byte) error
	ZeroBytes(addr, n uint32) error
	RawRead32(addr uint32) (uint32, error)
	RawWrite32(addr, v uint32) error
}

// Placement describes where an image has been (or will be) loaded. The
// section layout is text ‖ data ‖ bss ‖ stack from Base upward; the
// stack grows down from StackTop.
type Placement struct {
	Image *telf.Image
	Base  uint32
}

// TextBase returns the load address of the text section.
func (p Placement) TextBase() uint32 { return p.Base }

// align4 rounds an address up to the next word boundary.
func align4(a uint32) uint32 { return (a + 3) &^ 3 }

// DataBase returns the load address of the data section. Data abuts
// text exactly (relocation offsets are computed against this layout).
func (p Placement) DataBase() uint32 { return p.Base + uint32(len(p.Image.Text)) }

// BSSBase returns the load address of the zero-initialized section,
// word-aligned so the IPC mailbox at its base is addressable.
func (p Placement) BSSBase() uint32 {
	return align4(p.DataBase() + uint32(len(p.Image.Data)))
}

// StackBase returns the lowest address of the stack reservation,
// word-aligned.
func (p Placement) StackBase() uint32 { return align4(p.BSSBase() + p.Image.BSSSize) }

// StackTop returns the initial stack pointer (just past the region),
// word-aligned even for images with odd section sizes.
func (p Placement) StackTop() uint32 {
	return p.StackBase() + align4(p.Image.StackSize)
}

// EntryAddr returns the absolute entry point.
func (p Placement) EntryAddr() uint32 { return p.Base + p.Image.Entry }

// Size returns the total region size including alignment padding.
func (p Placement) Size() uint32 { return p.StackTop() - p.Base }

// PlacedSize returns the memory an image occupies once placed,
// including section-alignment padding — the amount the allocator must
// reserve (at least telf.Image.LoadSize, at most 8 bytes more).
func PlacedSize(im *telf.Image) uint32 {
	return Placement{Image: im}.Size()
}

// Region returns the task's memory region for EA-MPU configuration.
func (p Placement) Region() eampu.Region {
	return eampu.Region{Start: p.Base, Size: roundUp(p.Size())}
}

// FixupCost returns the cycle cost of applying (or reverting) one
// relocation of the given kind (Table 5 calibration).
func FixupCost(kind telf.RelocKind) uint64 {
	switch kind {
	case telf.RelWord:
		return machine.CostRelocWord
	case telf.RelImm32Add:
		return machine.CostRelocImm32Addend
	default:
		return machine.CostRelocImm32
	}
}

// RelocationCost returns the full Table 5 cost of relocating an image:
// the table scan plus one fixup per entry.
func RelocationCost(im *telf.Image) uint64 {
	c := uint64(machine.CostRelocScan)
	for _, r := range im.Relocs {
		c += FixupCost(r.Kind)
	}
	return c
}

// ApplyRelocation patches the single relocation r of a placement in
// memory: the stored image-relative word becomes absolute.
func ApplyRelocation(mem Memory, p Placement, r telf.Reloc) error {
	addr := p.Base + r.Offset
	v, err := mem.RawRead32(addr)
	if err != nil {
		return err
	}
	return mem.RawWrite32(addr, v+p.Base)
}

// RevertRelocation undoes ApplyRelocation (used when moving a task and
// in tests; the RTM reverts on a scratch copy instead, see
// RevertInBlock).
func RevertRelocation(mem Memory, p Placement, r telf.Reloc) error {
	addr := p.Base + r.Offset
	v, err := mem.RawRead32(addr)
	if err != nil {
		return err
	}
	return mem.RawWrite32(addr, v-p.Base)
}

// RevertInBlock reverts, *within the scratch buffer block*, every
// relocation of the image that falls inside the measured byte range
// [blockOff, blockOff+len(block)). It returns how many fixups were
// reverted so the RTM can charge CostRevertPerAddr each. The task's
// memory itself is untouched: the paper's RTM "temporarily reverts the
// changes made during relocation before computing the hash digest", and
// doing so on the hash input preserves both the task's executability
// and the position-independence of the measurement.
func RevertInBlock(im *telf.Image, base uint32, blockOff uint32, block []byte) int {
	n := 0
	for _, r := range im.Relocs {
		if r.Offset < blockOff {
			continue
		}
		if r.Offset+4 > blockOff+uint32(len(block)) {
			// Relocations are word-aligned and blocks are multiples of
			// 4, so a fixup either fits fully or starts past the block.
			if r.Offset >= blockOff+uint32(len(block)) {
				break
			}
			continue
		}
		i := r.Offset - blockOff
		v := uint32(block[i]) | uint32(block[i+1])<<8 | uint32(block[i+2])<<16 | uint32(block[i+3])<<24
		v -= base
		block[i] = byte(v)
		block[i+1] = byte(v >> 8)
		block[i+2] = byte(v >> 16)
		block[i+3] = byte(v >> 24)
		n++
	}
	return n
}

// --- Interruptible load job ---------------------------------------------

// Phase identifies the current stage of a load job.
type Phase int

// Load phases, in order.
const (
	PhaseCopy  Phase = iota // stream text+data from flash into RAM
	PhaseZero               // zero the BSS
	PhaseReloc              // apply relocation fixups
	PhaseDone
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseCopy:
		return "copy"
	case PhaseZero:
		return "zero"
	case PhaseReloc:
		return "reloc"
	case PhaseDone:
		return "done"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// ErrJobDone is returned by Step after the job has completed.
var ErrJobDone = errors.New("loader: job already done")

// Job is an in-progress, interruptible task load. Each Step performs at
// most the given budget of work and returns the cycles it actually
// consumed; the kernel charges them and may schedule other tasks before
// the next Step. This is the mechanism that keeps the 27.8 ms load of
// the use case from blocking the 1.5 kHz control tasks.
type Job struct {
	mem   Memory
	p     Placement
	phase Phase
	pos   uint32 // byte position within the current phase
	blob  []byte // text ‖ data, the flash-resident bytes
	reloc int    // next relocation index

	copyCost  uint64
	zeroCost  uint64
	relocCost uint64

	aborted bool
}

// NewJob prepares a load of im at base. No memory is touched yet.
func NewJob(mem Memory, im *telf.Image, base uint32) *Job {
	blob := make([]byte, 0, len(im.Text)+len(im.Data))
	blob = append(blob, im.Text...)
	blob = append(blob, im.Data...)
	// Tell the simulator how much more executable text is about to be
	// resident so it can widen its predecode tables before the code
	// runs (a host-side sizing hint; no guest-visible effect).
	if g, ok := mem.(interface{ GrowICacheForText(uint32) }); ok {
		g.GrowICacheForText(uint32(len(im.Text)))
	}
	return &Job{mem: mem, p: Placement{Image: im, Base: base}, blob: blob}
}

// Placement returns the job's target placement.
func (j *Job) Placement() Placement { return j.p }

// Phase returns the current phase.
func (j *Job) Phase() Phase { return j.phase }

// Done reports whether the job has finished.
func (j *Job) Done() bool { return j.phase == PhaseDone }

// wordCost is the cycle cost of streaming one image word from flash.
const wordCost = machine.CostFlashReadWord + machine.CostCopyLoopWord

// Step advances the job by at most budget cycles of work and returns the
// cycles consumed. Work quanta are one word (copy/zero) or one fixup
// (reloc); Step consumes at least one quantum per call so the job always
// makes progress even under a tiny budget.
func (j *Job) Step(budget uint64) (used uint64, err error) {
	if j.phase == PhaseDone {
		return 0, ErrJobDone
	}
	for {
		var quantum uint64
		switch j.phase {
		case PhaseCopy:
			total := uint32(len(j.blob))
			if j.pos >= total {
				j.phase, j.pos = PhaseZero, 0
				continue
			}
			// Move every word the remaining budget pays for in one go:
			// the per-word loop would stop after the first word that
			// brings used to budget, and always runs at least one.
			words := (total - j.pos + 3) / 4
			if used >= budget {
				words = 1
			} else if fit := (budget-used-1)/wordCost + 1; fit < uint64(words) {
				words = uint32(fit)
			}
			n, err := j.copyWords(words)
			quantum = uint64(n) * wordCost
			j.copyCost += quantum
			if err != nil {
				return used + quantum, err
			}
		case PhaseZero:
			total := j.p.Image.BSSSize
			if j.pos >= total {
				j.phase, j.pos = PhaseReloc, 0
				// Table scan happens once, entering the phase.
				quantum = machine.CostRelocScan
				j.relocCost += quantum
				if len(j.p.Image.Relocs) == 0 {
					j.phase = PhaseDone
				}
				break
			}
			end := j.pos + 64
			if end > total {
				end = total
			}
			if err := j.mem.ZeroBytes(j.p.BSSBase()+j.pos, end-j.pos); err != nil {
				return used, err
			}
			quantum = uint64(end-j.pos) / 4 * machine.CostZeroWord
			j.zeroCost += quantum
			j.pos = end
		case PhaseReloc:
			if j.reloc >= len(j.p.Image.Relocs) {
				j.phase = PhaseDone
				return used, nil
			}
			r := j.p.Image.Relocs[j.reloc]
			if err := ApplyRelocation(j.mem, j.p, r); err != nil {
				return used, err
			}
			j.reloc++
			quantum = FixupCost(r.Kind)
			j.relocCost += quantum
		case PhaseDone:
			return used, nil
		}
		used += quantum
		if used >= budget {
			return used, nil
		}
	}
}

// copyWords streams up to words image words (the last may be short)
// from pos in one LoadBytes and returns how many landed. When the bulk
// store fails it replays the range word by word, so pos and the count
// reflect the progress the one-word-per-quantum loop would have made
// before its first failing word; a failure the replay does not
// reproduce is still reported, never swallowed.
func (j *Job) copyWords(words uint32) (uint32, error) {
	total := uint32(len(j.blob))
	end := j.pos + 4*words
	if end > total {
		end = total
	}
	bulkErr := j.mem.LoadBytes(j.p.Base+j.pos, j.blob[j.pos:end])
	if bulkErr == nil {
		j.pos = end
		return words, nil
	}
	for n := uint32(0); n < words; n++ {
		end := j.pos + 4
		if end > total {
			end = total
		}
		if err := j.mem.LoadBytes(j.p.Base+j.pos, j.blob[j.pos:end]); err != nil {
			return n, err
		}
		j.pos = end
	}
	return words, bulkErr
}

// CopyCost returns the cycles spent streaming the image from flash.
func (j *Job) CopyCost() uint64 { return j.copyCost }

// ZeroCost returns the cycles spent zeroing the BSS.
func (j *Job) ZeroCost() uint64 { return j.zeroCost }

// RelocCost returns the cycles spent on the relocation phase (the
// Table 5 quantity: scan plus per-fixup costs).
func (j *Job) RelocCost() uint64 { return j.relocCost }

// AppliedRelocs returns how many relocation fixups have been applied so
// far — what Abort will have to revert.
func (j *Job) AppliedRelocs() int { return j.reloc }

// Aborted reports whether the job was torn down by Abort.
func (j *Job) Aborted() bool { return j.aborted }

// touchedExtent returns the number of bytes from Base the job may have
// written so far.
func (j *Job) touchedExtent() uint32 {
	switch j.phase {
	case PhaseCopy:
		return j.pos
	case PhaseZero:
		return j.p.BSSBase() + j.pos - j.p.Base
	default:
		return j.p.BSSBase() + j.p.Image.BSSSize - j.p.Base
	}
}

// Abort tears down a partially-performed load so the region can be
// returned to the allocator with no remnants of the task: applied
// relocations are reverted (restoring the flash-image bytes, the
// counterpart of the RTM's RevertInBlock) and the whole touched extent
// is zeroed. It returns the cycle cost of the teardown; the job is dead
// afterwards (Step returns ErrJobDone).
func (j *Job) Abort() (uint64, error) {
	if j.aborted {
		return 0, nil
	}
	var cost uint64
	for i := j.reloc - 1; i >= 0; i-- {
		r := j.p.Image.Relocs[i]
		if err := RevertRelocation(j.mem, j.p, r); err != nil {
			return cost, err
		}
		cost += FixupCost(r.Kind)
	}
	j.reloc = 0
	if n := j.touchedExtent(); n > 0 {
		if err := j.mem.ZeroBytes(j.p.Base, n); err != nil {
			return cost, err
		}
		cost += uint64(n) / 4 * machine.CostZeroWord
	}
	j.phase, j.pos = PhaseDone, 0
	j.aborted = true
	return cost, nil
}

// Run drives the job to completion in one call and returns the total
// cycle cost (the non-interruptible path, used by benchmarks measuring
// raw creation cost).
func (j *Job) Run() (uint64, error) {
	var total uint64
	for !j.Done() {
		used, err := j.Step(1 << 30)
		total += used
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
