package fleet

import (
	"strconv"

	"repro/internal/trace"
)

// Metrics returns the plane's Prometheus registry, built on first call
// and cached: session-outcome and appraisal-cache counters as sampled
// gauges, registry census gauges per device state, one state gauge per
// registered device, per-slot utilization, and the two
// session-duration histograms (device cycles — deterministic, fed via
// ObserveSessionCycles — and host ns, fed live when a Clock is set).
//
// Everything is sampled at export time, so serving /metrics costs the
// attestation path nothing. Device and provider names flow into label
// values and are escaped by the exposition writer; an adversarial name
// cannot corrupt the scrape. Devices enrolled after the first Metrics
// call appear in the census gauges but not as per-device rows — the
// per-device set is fixed at build time.
func (p *Plane) Metrics() *trace.Registry {
	p.metricsOnce.Do(func() {
		r := trace.NewRegistry()

		outcomes := []struct {
			label string
			fn    func() uint64
		}{
			{"attested", func() uint64 { a, _, _, _ := p.Counts(); return a }},
			{"rejected", func() uint64 { _, rj, _, _ := p.Counts(); return rj }},
			{"refused", func() uint64 { _, _, rf, _ := p.Counts(); return rf }},
			{"errored", func() uint64 { _, _, _, er := p.Counts(); return er }},
		}
		for _, o := range outcomes {
			r.GaugeWith("tytan_fleet_sessions",
				"completed attestation sessions by outcome",
				o.fn, trace.Label{Key: "outcome", Value: o.label})
		}

		r.GaugeWith("tytan_fleet_cache",
			"appraisal cache lookups (hit ratio = hit / (hit + miss))",
			func() uint64 { h, _ := p.cache.Counts(); return h },
			trace.Label{Key: "result", Value: "hit"})
		r.GaugeWith("tytan_fleet_cache",
			"appraisal cache lookups (hit ratio = hit / (hit + miss))",
			func() uint64 { _, m := p.cache.Counts(); return m },
			trace.Label{Key: "result", Value: "miss"})

		states := []struct {
			label string
			fn    func() uint64
		}{
			{"healthy", func() uint64 { h, _, _ := p.reg.Counts(); return uint64(h) }},
			{"suspect", func() uint64 { _, s, _ := p.reg.Counts(); return uint64(s) }},
			{"quarantined", func() uint64 { _, _, q := p.reg.Counts(); return uint64(q) }},
		}
		for _, s := range states {
			r.GaugeWith("tytan_fleet_devices",
				"registry census by device state",
				s.fn, trace.Label{Key: "state", Value: s.label})
		}

		// One state-code gauge per device registered at build time
		// (0=healthy 1=suspect 2=quarantined). The snapshot is sorted,
		// so the exposition order is deterministic.
		for _, d := range p.reg.Snapshot() {
			name := d.Name
			r.GaugeWith("tytan_fleet_device_state",
				"per-device registry state (0=healthy 1=suspect 2=quarantined)",
				func() uint64 {
					cur, _ := p.reg.Lookup(name)
					return uint64(cur.State)
				},
				trace.Label{Key: "device", Value: name})
		}

		r.GaugeWith("tytan_fleet_provider_info",
			"constant 1; the provider label names the plane's verification key",
			func() uint64 { return 1 },
			trace.Label{Key: "provider", Value: p.client.Provider()})

		for i := range p.slotSessions {
			slot := i
			r.GaugeWith("tytan_fleet_acceptor_sessions",
				"sessions served per session slot (pool utilization)",
				func() uint64 { return p.AcceptorSessions()[slot] },
				trace.Label{Key: "acceptor", Value: strconv.Itoa(slot)})
		}

		r.AttachHistogram("tytan_fleet_session_cycles",
			"end-to-end session duration in device cycles (hello to verdict, device side)",
			p.sessionCycles)
		r.AttachHistogram("tytan_fleet_session_host_ns",
			"per-session verification-path host time in nanoseconds (benchmark clock only)",
			p.sessionHostNS)

		p.metrics = r
	})
	return p.metrics
}
