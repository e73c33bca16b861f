package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/sha1"
	"repro/internal/trusted"
)

// fleet-steady and fleet-churn: one op is one attestation session. A
// step is one fleet.Run of Devices × Rounds sessions; runs go back to
// back. The seed is the fleet seed: it assigns builds and picks the
// faulty devices.

// fleetSteady shares each build across ~330 devices, so the appraisal
// cache almost always hits; telemetry is off.
func fleetSteady(seed uint64) fleet.Config {
	return fleet.Config{Devices: 1000, Rounds: 5, Variants: 3, Faulty: 10, Observe: true, Seed: seed}
}

// fleetChurn rarely shares a build, so the cache misses once per
// distinct digest, and assembles the full telemetry stack.
func fleetChurn(seed uint64) fleet.Config {
	return fleet.Config{
		Devices: 1000, Rounds: 5, Variants: 500, Faulty: 50, Observe: true, Seed: seed,
		Telemetry: fleet.TelemetryConfig{Timeline: true, Metrics: true, FlightSize: 64},
	}
}

// pinnedReports are Report.Text() SHA-256 digests per workload and
// seed. Set-up holds any seed listed here to its digest; every seed is
// also held to a single-shard, telemetry-off reference run.
var pinnedReports = map[string]map[uint64]string{
	"fleet-steady": {1: "e885c381d36cd5f7928a8adc4eb9162400af3506f812a0a8361c7dd121ff204c"},
	"fleet-churn":  {1: "5a6c31229489944aa55c35080f9571aac8940f2ecaa967197f37af6c1ded1a5d"},
}

type fleetSession struct {
	cfg        fleet.Config
	wantReport [32]byte
	wantMisses uint64
	epoch      time.Time
}

func setupFleet(name string, config func(seed uint64) fleet.Config) func(uint64) (session, error) {
	return func(seed uint64) (session, error) {
		cfg := config(seed)
		// The reference: one shard, one acceptor, no telemetry and no
		// host clock. The report must not depend on any of them.
		ref := cfg
		ref.Shards, ref.Listeners, ref.Telemetry = 1, 1, fleet.TelemetryConfig{}
		res, err := fleet.Run(ref)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		s := &fleetSession{cfg: cfg, wantReport: sha256.Sum256([]byte(res.Report.Text()))}
		if pin, ok := pinnedReports[name][seed]; ok && pin != hex.EncodeToString(s.wantReport[:]) {
			return nil, fmt.Errorf("reference report digest %x, pinned %s", s.wantReport, pin)
		}
		misses, err := distinctDigests(cfg)
		if err != nil {
			return nil, err
		}
		s.wantMisses = uint64(misses)

		s.cfg.Shards = runtime.NumCPU()
		s.cfg.Listeners = runtime.NumCPU()
		s.epoch = time.Now()
		s.cfg.Clock = func() int64 { return int64(time.Since(s.epoch)) }
		// Warm-up: one run at full width.
		t := newTally()
		s.step(t, nil)
		if t.failed > 0 {
			return nil, fmt.Errorf("warm-up: %s", t.firstFailure)
		}
		return s, nil
	}
}

// distinctDigests replays fleet.Run's seeded build assignment and
// counts the distinct measured identities among the builds the devices
// run. Every device's first session is appraised, so this is the
// appraisal cache's miss count.
func distinctDigests(cfg fleet.Config) (int, error) {
	rng := faultinject.NewRNG(cfg.Seed ^ 0xF1EE7F1EE7)
	variant := make([]int, cfg.Devices)
	for i := range variant {
		variant[i] = rng.Intn(cfg.Variants)
	}
	faulty := make([]bool, cfg.Devices)
	for picked := 0; picked < cfg.Faulty; {
		if i := rng.Intn(cfg.Devices); !faulty[i] {
			faulty[i] = true
			variant[i] = cfg.Variants // the unpublished build
			picked++
		}
	}
	seen := make(map[int]bool)
	ids := make(map[sha1.Digest]bool)
	for _, v := range variant {
		if seen[v] {
			continue
		}
		seen[v] = true
		im, err := fleet.VariantImage(v)
		if err != nil {
			return 0, err
		}
		ids[trusted.IdentityOfImage(im)] = true
	}
	return len(ids), nil
}

func (s *fleetSession) step(t *tally, sp *spans) {
	sessions := s.cfg.Devices * s.cfg.Rounds
	t.attempted += sessions
	t0 := time.Now()
	res, err := fleet.Run(s.cfg)
	d := time.Since(t0)
	sp.end("fleet.run", t0)
	if err != nil {
		t.fail(sessions, "fleet run: %v", err)
		return
	}
	rep := res.Report
	decided := int(rep.Attested + rep.Rejected + rep.Refused)
	t.done += decided
	t.busy += d
	t.lat = append(t.lat, res.Plane.HostDurations()...)
	t.cycles += rep.SessionE2E.Sum
	t.cycleOps += uint64(rep.SessionE2E.Count)

	if rep.Errored > 0 || decided != sessions {
		t.fail(sessions-decided, "fleet run: %d decided, %d errored of %d sessions", decided, rep.Errored, sessions)
	}
	if got := sha256.Sum256([]byte(rep.Text())); got != s.wantReport {
		t.fail(decided, "fleet report digest %x, reference %x", got, s.wantReport)
	} else if rep.CacheMisses != s.wantMisses {
		t.fail(decided, "appraisal cache misses %d, distinct digests %d", rep.CacheMisses, s.wantMisses)
	} else if s.cfg.Telemetry.Metrics && (res.Telemetry == nil || res.Telemetry.Timeline == nil || res.Telemetry.Metrics == nil) {
		t.fail(decided, "telemetry products missing")
	}

	c := t.counts
	c["fleet.runs"]++
	c["fleet.attested"] += float64(rep.Attested)
	c["fleet.rejected"] += float64(rep.Rejected)
	c["fleet.refused"] += float64(rep.Refused)
	c["fleet.errored"] += float64(rep.Errored)
	c["fleet.cache_hits"] += float64(rep.CacheHits)
	c["fleet.cache_misses"] += float64(rep.CacheMisses)
	var max, sum uint64
	acc := res.Plane.AcceptorSessions()
	for _, n := range acc {
		sum += n
		if n > max {
			max = n
		}
	}
	c["fleet.acceptor_max_over_mean"] += ratio(float64(max), float64(sum)/float64(len(acc)))
}

// probe times device boots: fleet.Run boots every device inside the
// program, so the benchmark boots platforms with the farm's options
// itself to give core.boot a span.
func (s *fleetSession) probe(sp *spans) error {
	for i := 0; i < 200; i++ {
		t0 := sp.begin()
		p, err := core.NewPlatform(core.Options{Provider: "oem", RAMSize: 2 << 20})
		sp.end("core.boot", t0)
		if err != nil {
			return err
		}
		p.Close()
	}
	return nil
}
