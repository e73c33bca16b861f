package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/benchlab"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sha1"
	"repro/internal/telf"
	"repro/internal/trusted"
)

// secure-load: one op is the Table 1 cruise-control scenario on a fresh
// platform with the strict verification gate and bounds admission on:
// t0 and t1 loaded synchronously, 64 ticks, t2 (11.6 KB of data) loaded
// asynchronously while t0 and t1 keep running, 64 more ticks. The seed
// fills t2's data section, so t2's measured identity differs per seed
// while the work (and every simulated cycle) does not.

// The use case's activation tags and task period (benchlab's Table 1
// scenario).
const (
	useCaseTagT0  = 1
	useCaseTagT1  = 2
	useCaseTagT2  = 3
	useCasePeriod = 31_200
	useCaseWindow = 64 * core.DefaultTickPeriod
)

// loadOutcome is everything one op produces that must not vary: the
// simulated side of the scenario.
type loadOutcome struct {
	ids       [3]sha1.Digest // t0, t1, t2 measured identities
	breakdown core.LoadBreakdown
	cycles    uint64
	insns     uint64
	cmdLog    string // hex SHA-256 of the engine actuator's command log
}

// loadPinned is the seed-independent part of loadOutcome, identical on
// every engine.
var loadPinned = loadOutcome{
	breakdown: core.LoadBreakdown{
		Verify: 1452, Alloc: 300, Copy: 582_814, Reloc: 37,
		Install: 1640, Protect: 1296, Measure: 724_724, Schedule: 210,
	},
	cycles: 5_953_666,
	insns:  3278,
	cmdLog: "697603117d712c96e39d67f300bd05dd48e70a9ba74923193e8d4e62f4ab420f",
}

type secureLoadSession struct {
	images [3]*telf.Image
	want   loadOutcome
}

func setupSecureLoad(seed uint64) (session, error) {
	t0 := benchlab.UseCaseTaskImage(useCaseTagT0, useCasePeriod)
	t0.Name = "t0"
	t1 := benchlab.UseCaseTaskImage(useCaseTagT1, useCasePeriod)
	t1.Name = "t1"
	t2 := benchlab.UseCaseT2Image(useCaseTagT2, useCasePeriod)
	rng := rand.New(rand.NewPCG(seed, 0x5EC0_E10AD))
	data := make([]byte, len(t2.Data))
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	t2.Data = data

	s := &secureLoadSession{images: [3]*telf.Image{t0, t1, t2}, want: loadPinned}
	for i, im := range s.images {
		s.want.ids[i] = trusted.IdentityOfImage(im)
	}
	// The engine cross-check: one op on the reference interpreter must
	// produce the pinned outcome the default engine is held to.
	ref, _, _, err := s.op(core.EngineReference, nil)
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	if err := s.check(ref); err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	// Warm-up on the default engine.
	t := newTally()
	s.step(t, nil)
	if t.failed > 0 {
		return nil, fmt.Errorf("warm-up: %s", t.firstFailure)
	}
	return s, nil
}

// op runs the scenario once on a fresh platform.
func (s *secureLoadSession) op(engine core.Engine, sp *spans) (loadOutcome, machine.Stats, uint64, error) {
	var out loadOutcome
	t := sp.begin()
	p, err := core.NewPlatform(core.Options{StrictVerify: true, BoundsAdmission: true, Engine: engine})
	sp.end("core.boot", t)
	if err != nil {
		return out, machine.Stats{}, 0, err
	}
	defer p.Close()

	t = sp.begin()
	for i := 0; i < 2; i++ {
		if _, out.ids[i], err = p.LoadTaskSync(s.images[i], core.Secure, 5); err != nil {
			return out, machine.Stats{}, 0, fmt.Errorf("load %s: %w", s.images[i].Name, err)
		}
	}
	sp.end("core.load_sync", t)

	t = sp.begin()
	err = p.Run(useCaseWindow)
	sp.end("core.run", t)
	if err != nil {
		return out, machine.Stats{}, 0, err
	}

	t = sp.begin()
	req := p.LoadTaskAsync(s.images[2], core.Secure, 4)
	for start := p.Cycles(); !req.Done() && p.Cycles() < start+100*useCaseWindow; {
		if err := p.Run(core.DefaultTickPeriod); err != nil {
			return out, machine.Stats{}, 0, err
		}
	}
	sp.end("core.load_async", t)
	if !req.Done() {
		return out, machine.Stats{}, 0, errors.New("t2 load never completed")
	}
	if err := req.Err(); err != nil {
		return out, machine.Stats{}, 0, fmt.Errorf("load t2: %w", err)
	}
	out.ids[2] = req.Identity()
	out.breakdown = req.Breakdown

	t = sp.begin()
	err = p.Run(useCaseWindow)
	sp.end("core.run", t)
	if err != nil {
		return out, machine.Stats{}, 0, err
	}

	out.cycles = p.Cycles()
	out.insns = p.M.InsnRetired()
	h := sha256.New()
	var rec [12]byte
	for _, c := range p.Engine.Commands() {
		binary.LittleEndian.PutUint64(rec[:8], c.Cycle)
		binary.LittleEndian.PutUint32(rec[8:], c.Value)
		h.Write(rec[:])
	}
	out.cmdLog = hex.EncodeToString(h.Sum(nil))
	return out, p.M.Stats(), p.C.RTM.Measured(), nil
}

func (s *secureLoadSession) check(got loadOutcome) error {
	if got != s.want {
		return fmt.Errorf("outcome %+v, pinned %+v", got, s.want)
	}
	return nil
}

func (s *secureLoadSession) step(t *tally, sp *spans) {
	t.attempted++
	t0 := time.Now()
	got, st, measured, err := s.op(core.EngineDefault, sp)
	d := time.Since(t0)
	if err != nil {
		t.fail(1, "op: %v", err)
		return
	}
	t.complete(d, got.insns, got.cycles)
	if err := s.check(got); err != nil {
		t.fail(1, "%v", err)
	}
	addMachineStats(t, st, machine.Stats{})
	t.counts["trusted.measured"] += float64(measured)
	b := got.breakdown
	for i, v := range []uint64{b.Verify, b.Alloc, b.Copy, b.Reloc, b.Install, b.Protect, b.Measure, b.Schedule} {
		t.counts["loader."+loadPhases[i]] += float64(v)
	}
	t.counts["loader.loads"]++
}
