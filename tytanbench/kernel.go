package main

import (
	"fmt"
	"time"

	"repro/internal/benchlab"
	"repro/internal/machine"
)

// engine-kernel: one op is one pass of the EA-MPU-enforced throughput
// kernel on the superblock engine (the machine default), with the
// machine and its warmed caches reused across ops. The kernel has no
// inputs, so the seed changes nothing here.

// kernelPinned is the architectural outcome of one kernel pass on every
// engine.
var kernelPinned = benchlab.KernelResult{
	Sum:          400_080_000,
	Cycles:       580_005,
	Instructions: 320_004,
	Violations:   0,
	EIP:          0x2058,
}

type kernelSession struct {
	k    *benchlab.KernelRun
	prev machine.Stats
}

func setupKernel(uint64) (session, error) {
	// The engine cross-check: one pass on the reference interpreter
	// must produce the pinned outcome the default engine is held to.
	ref, err := benchlab.NewKernelRun(false, false)
	if err != nil {
		return nil, err
	}
	if got, err := ref.Run(); err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	} else if got != kernelPinned {
		return nil, fmt.Errorf("reference kernel: got %+v, pinned %+v", got, kernelPinned)
	}
	k, err := benchlab.NewKernelRun(true, true)
	if err != nil {
		return nil, err
	}
	s := &kernelSession{k: k}
	// Warm-up: the first pass compiles the superblocks.
	t := newTally()
	s.step(t, nil)
	if t.failed > 0 {
		return nil, fmt.Errorf("warm-up: %s", t.firstFailure)
	}
	return s, nil
}

func (s *kernelSession) step(t *tally, _ *spans) {
	t.attempted++
	t0 := time.Now()
	got, err := s.k.Run()
	d := time.Since(t0)
	if err != nil {
		t.fail(1, "kernel pass: %v", err)
		return
	}
	t.complete(d, got.Instructions, got.Cycles)
	if got != kernelPinned {
		t.fail(1, "kernel pass: got %+v, pinned %+v", got, kernelPinned)
	}
	st := s.k.Stats()
	addMachineStats(t, st, s.prev)
	s.prev = st
}

// addMachineStats adds the engine counters accumulated between prev and
// cur to the tally.
func addMachineStats(t *tally, cur, prev machine.Stats) {
	c := t.counts
	c["machine.insns"] += float64(cur.InsnRetired - prev.InsnRetired)
	c["machine.decode_misses"] += float64(cur.DecodeMisses - prev.DecodeMisses)
	c["machine.gen_bumps"] += float64(cur.GenBumps - prev.GenBumps)
	c["machine.sb_compiles"] += float64(cur.SBCompiles - prev.SBCompiles)
	c["machine.sb_hits"] += float64(cur.SBHits - prev.SBHits)
	c["machine.sb_bails"] += float64(cur.SBBails - prev.SBBails)
	c["machine.sb_fallbacks"] += float64(cur.SBFallbacks - prev.SBFallbacks)
	c["machine.sb_invalidations"] += float64(cur.SBInvalidations - prev.SBInvalidations)
	c["eampu.span_fills"] += float64(cur.ExecSpanFills - prev.ExecSpanFills + cur.DataSpanFills - prev.DataSpanFills)
}
