package fleet

import "testing"

// BenchmarkFleetTelemetry measures fleet telemetry assembly on the
// streams of a 1000-device × 5-round run with 500 builds and 50 faulty
// devices: each device's stream through its session log and lane
// layout (work Run does in the device goroutines, here serial), then
// the merge with the sorted plane stream into the timeline and the
// incidents. The simulation itself runs once, outside the timer.
func BenchmarkFleetTelemetry(b *testing.B) {
	cfg, err := Config{
		Devices: 1000, Rounds: 5, Variants: 500, Faulty: 50, Seed: 1,
		Telemetry: TelemetryConfig{Timeline: true, FlightSize: 64},
	}.withDefaults()
	if err != nil {
		b.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	streams, plane := collectedStreams(b, res)
	recorders := make([]*Recorder, len(streams))
	for i, s := range streams {
		recorders[i] = NewRecorder(s.Name, cfg.Telemetry.FlightSize)
		for _, e := range s.Events {
			recorders[i].Emit(e)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := make([]deviceResult, len(streams))
		for d, s := range streams {
			log := newSessionLog(cfg.Rounds, true)
			for _, e := range s.Events {
				log.Emit(e)
			}
			results[d] = deviceResult{
				name: s.Name, rtt: log.rtt, e2e: log.e2e, events: s.Events,
				sessions: log.sessions, lane: deviceLane(s.Name, s.Events, log.sessions),
				recorder: recorders[d],
			}
		}
		if tel := assemble(cfg, res.Plane, results, plane); len(tel.Timeline.Sessions) != cfg.Devices*cfg.Rounds {
			b.Fatalf("sessions = %d", len(tel.Timeline.Sessions))
		}
	}
}
