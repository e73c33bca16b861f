package loader

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/telf"
)

// stepWordLoop is the one-word-per-quantum copy phase Step replaced:
// the oracle the bulk copy must reproduce quantum for quantum. It only
// covers the copy phase and stops where the phase ends.
func stepWordLoop(j *Job, budget uint64) (used uint64, err error) {
	for j.phase == PhaseCopy {
		if j.pos >= uint32(len(j.blob)) {
			j.phase, j.pos = PhaseZero, 0
			return used, nil
		}
		end := j.pos + 4
		if end > uint32(len(j.blob)) {
			end = uint32(len(j.blob))
		}
		if err := j.mem.LoadBytes(j.p.Base+j.pos, j.blob[j.pos:end]); err != nil {
			return used, err
		}
		j.pos = end
		j.copyCost += wordCost
		used += wordCost
		if used >= budget {
			return used, nil
		}
	}
	return used, nil
}

// TestCopyPhaseMatchesWordLoop steps the copy phase with every budget
// from 1 to 64 cycles, around multiples of the word cost and near
// MaxUint64, and requires the same
// (used, pos, phase, copyCost) after every Step as the word loop, and
// identical RAM at the end — for an image whose length is not a
// multiple of four, so the short last quantum is covered too.
func TestCopyPhaseMatchesWordLoop(t *testing.T) {
	im := &telf.Image{Name: "c", Text: make([]byte, 203), Data: make([]byte, 58)}
	for i := range im.Text {
		im.Text[i] = byte(i*7 + 1)
	}
	for i := range im.Data {
		im.Data[i] = byte(i*13 + 5)
	}
	const base = 0x20000
	// 1..64 cycles buy one word per Step (a word costs wordCost); the
	// multiples of wordCost and their neighbours exercise multi-word
	// chunks at exactly the budget edges.
	budgets := []uint64{^uint64(0), ^uint64(0) - 1}
	for b := uint64(1); b <= 64; b++ {
		budgets = append(budgets, b)
	}
	for k := uint64(1); k <= 6; k++ {
		budgets = append(budgets, k*wordCost-1, k*wordCost, k*wordCost+1)
	}
	for _, budget := range budgets {
		mb, mw := machine.New(1<<20), machine.New(1<<20)
		bulk, word := NewJob(mb, im, base), NewJob(mw, im, base)
		for step := 0; ; step++ {
			ub, errB := bulk.Step(budget)
			uw, errW := stepWordLoop(word, budget)
			if errB != nil || errW != nil {
				t.Fatalf("budget %d step %d: errors %v / %v", budget, step, errB, errW)
			}
			if bulk.phase != PhaseCopy || word.phase != PhaseCopy {
				// Step runs on into the later phases within the same
				// call; only the copy phase's share is comparable.
				if bulk.phase == PhaseCopy || word.phase == PhaseCopy {
					t.Fatalf("budget %d step %d: phases diverged (bulk %v, word %v)", budget, step, bulk.phase, word.phase)
				}
				break
			}
			got := fmt.Sprint(ub, bulk.pos, bulk.phase, bulk.copyCost)
			want := fmt.Sprint(uw, word.pos, word.phase, word.copyCost)
			if got != want {
				t.Fatalf("budget %d step %d: (used pos phase copyCost) = %s, word loop %s", budget, step, got, want)
			}
		}
		if bulk.copyCost != word.copyCost {
			t.Fatalf("budget %d: copy cost %d, word loop %d", budget, bulk.copyCost, word.copyCost)
		}
		gb, _ := mb.ReadBytes(base, uint32(len(im.Text)+len(im.Data)))
		gw, _ := mw.ReadBytes(base, uint32(len(im.Text)+len(im.Data)))
		if string(gb) != string(gw) {
			t.Fatalf("budget %d: copied bytes differ", budget)
		}
	}
}

// TestCopyPhaseStopsAtRAMEnd: an image overrunning the end of RAM
// lands every word that fits, reports the bus error, and leaves pos and
// the charged cost where the word loop would.
func TestCopyPhaseStopsAtRAMEnd(t *testing.T) {
	im := &telf.Image{Name: "c", Text: make([]byte, 64)}
	for _, budget := range []uint64{1, 100, 1 << 30} {
		mb, mw := machine.New(1<<16), machine.New(1<<16)
		base := mb.RAMEnd() - 24
		bulk, word := NewJob(mb, im, base), NewJob(mw, im, base)
		var ub, uw uint64
		var errB, errW error
		for errB == nil && bulk.phase == PhaseCopy {
			var u uint64
			u, errB = bulk.Step(budget)
			ub += u
		}
		for errW == nil && word.phase == PhaseCopy {
			var u uint64
			u, errW = stepWordLoop(word, budget)
			uw += u
		}
		if errB == nil || errW == nil || errB.Error() != errW.Error() {
			t.Fatalf("budget %d: errors %v / %v", budget, errB, errW)
		}
		if ub != uw || bulk.pos != word.pos || bulk.copyCost != word.copyCost {
			t.Fatalf("budget %d: (used %d pos %d cost %d), word loop (%d %d %d)",
				budget, ub, bulk.pos, bulk.copyCost, uw, word.pos, word.copyCost)
		}
	}
}
