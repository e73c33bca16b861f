package fleet

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/analyze"
	"repro/internal/trace"
)

// namedEvents is one device's event stream, tagged with the device
// name.
type namedEvents struct {
	Name   string
	Events []trace.Event
}

// oracleTimeline is the fleet timeline assembled the direct way, from
// the collected streams alone: reconstruct every session from the
// device streams under one key map, correlate the plane's decisions by
// session key, and lay out each device lane by scanning every session.
// It is quadratic in fleet size and kept only as the differential
// oracle for the linear, per-device assembly in Run.
func oracleTimeline(devices []namedEvents, plane []trace.Event) *Timeline {
	t := &Timeline{}
	byKey := make(map[string]int) // session key → index into t.Sessions

	// Reconstruct the device-side brackets.
	for _, d := range devices {
		for _, e := range d.Events {
			if e.Kind != trace.KindSession {
				continue
			}
			n, ok := e.NumAttr("session")
			if !ok {
				continue
			}
			phase, ok := e.Attr("phase")
			if !ok {
				continue
			}
			key := trace.SessionKey(e.Subject, n)
			if phase.Str == "hello" {
				if _, dup := byKey[key]; !dup {
					byKey[key] = len(t.Sessions)
					t.Sessions = append(t.Sessions, Session{
						Key: key, Device: e.Subject, Ordinal: n, Start: e.Cycle,
					})
				}
				continue
			}
			if idx, found := byKey[key]; found && !t.Sessions[idx].Closed() {
				s := &t.Sessions[idx]
				s.End = e.Cycle
				s.Outcome = phase.Str
				if r, ok := e.Attr("result"); ok {
					s.Result = r.Str
				}
			}
		}
	}

	// Correlate the plane's decisions by session key.
	for i := range plane {
		e := &plane[i]
		if e.Kind != trace.KindFleet {
			continue
		}
		n, ok := e.NumAttr("session")
		if !ok {
			continue
		}
		if idx, found := byKey[trace.SessionKey(e.Subject, n)]; found {
			if t.Sessions[idx].Plane == nil {
				t.Sessions[idx].Plane = e
			}
		}
	}

	// Lane 0: the verifier plane. Each decision keeps its own sequence
	// ordinal as a "seq" attr and is re-anchored to the correlated
	// session's closing device cycle, so the lane lines up with the
	// device lanes in the viewer. Uncorrelated decisions keep their
	// ordinal as the timestamp (there is no cycle to anchor to).
	vp := trace.Lane{Name: "verifier-plane"}
	for _, e := range plane {
		anchored := e
		anchored.Attrs = append(append([]trace.Attr(nil), e.Attrs...), trace.Num("seq", e.Cycle))
		if n, ok := e.NumAttr("session"); ok {
			if idx, found := byKey[trace.SessionKey(e.Subject, n)]; found && t.Sessions[idx].Closed() {
				anchored.Cycle = t.Sessions[idx].End
			}
		}
		vp.Events = append(vp.Events, anchored)
	}
	for i := range t.Sessions {
		s := &t.Sessions[i]
		if !s.Correlated() {
			continue
		}
		vp.Spans = append(vp.Spans, trace.ChromeSpan{
			Name: s.Key, Subject: s.Device, Start: s.Start, Dur: s.End - s.Start,
			Attrs: append([]trace.Attr(nil), s.Plane.Attrs...),
		})
	}
	t.Lanes = append(t.Lanes, vp)

	// One lane per device: the full event stream plus a bar per closed
	// session, named by the session key it shares with the plane's bar.
	for _, d := range devices {
		lane := trace.Lane{Name: "device/" + d.Name, Events: d.Events}
		for i := range t.Sessions {
			s := &t.Sessions[i]
			if s.Device != d.Name || !s.Closed() {
				continue
			}
			attrs := []trace.Attr{trace.Str("phase", s.Outcome)}
			if s.Result != "" {
				attrs = append(attrs, trace.Str("result", s.Result))
			}
			attrs = append(attrs, trace.Num("session", s.Ordinal))
			lane.Spans = append(lane.Spans, trace.ChromeSpan{
				Name: s.Key, Subject: s.Device, Start: s.Start, Dur: s.End - s.Start,
				Attrs: attrs,
			})
		}
		t.Lanes = append(t.Lanes, lane)
	}
	return t
}

// collectedStreams splits a telemetry run's combined event stream back
// into the device streams (in device order, checked against the device
// lanes of the timeline) and the sorted plane stream after them.
func collectedStreams(tb testing.TB, res *Result) ([]namedEvents, []trace.Event) {
	tb.Helper()
	lanes := res.Telemetry.Timeline.Lanes[1:]
	streams := make([]namedEvents, len(lanes))
	off := 0
	for i, lane := range lanes {
		name := DeviceName(i)
		if lane.Name != "device/"+name {
			tb.Fatalf("lane %d = %q, want device/%s", i+1, lane.Name, name)
		}
		if off+len(lane.Events) > len(res.Events) ||
			!reflect.DeepEqual(lane.Events, res.Events[off:off+len(lane.Events)]) {
			tb.Fatalf("lane %s is not the device's slice of the collected stream", lane.Name)
		}
		streams[i] = namedEvents{Name: name, Events: lane.Events}
		off += len(lane.Events)
	}
	return streams, res.Events[off:]
}

// eventsEqual compares event slices element-wise (nil equals empty).
func eventsEqual(a, b []trace.Event) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// spansEqual compares span slices element-wise (nil equals empty).
func spansEqual(a, b []trace.ChromeSpan) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestTelemetryDifferential holds the per-device telemetry assembly to
// the direct one: a fleet with faulty devices burning into quarantine,
// refusals and one hello claiming an unregistered name, run with full
// telemetry, must give the same report statistics as per-device span
// analysis of the collected streams, and the same sessions, lanes,
// session durations, Chrome export and incident report as the oracle
// timeline over those streams. An Observe-only run must agree too.
func TestTelemetryDifferential(t *testing.T) {
	cfg := Config{
		Devices: 16, Rounds: 4, Shards: 4, Listeners: 3, Seed: 11,
		Variants: 3, Faulty: 2, MaxFailures: 2,
		Telemetry: TelemetryConfig{Timeline: true, Metrics: true, FlightSize: 64},
	}
	res, err := run(cfg, stranger((*Plane).attest))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Quarantined == 0 || rep.Refused < 2 || rep.Errored != 0 {
		t.Fatalf("scenario not exercised: quarantined=%d refused=%d errored=%d",
			rep.Quarantined, rep.Refused, rep.Errored)
	}
	streams, plane := collectedStreams(t, res)

	// Report statistics: per-device span analysis, pooled and sorted.
	var rtt, e2e []uint64
	for _, s := range streams {
		a := analyze.Analyze(s.Events)
		rtt = append(rtt, a.Durations(analyze.ClassAttest)...)
		e2e = append(e2e, a.Durations(analyze.ClassSession)...)
	}
	slices.Sort(rtt)
	slices.Sort(e2e)
	want := rep
	want.AttestRTT, want.SessionE2E = analyze.Summarize(rtt), analyze.Summarize(e2e)
	if rep.AttestRTT.Count == 0 || rep.SessionE2E.Count != int(rep.Sessions) {
		t.Fatalf("stats not exercised: rtt n=%d, e2e n=%d of %d sessions",
			rep.AttestRTT.Count, rep.SessionE2E.Count, rep.Sessions)
	}
	if got, want := rep.Text(), want.Text(); got != want {
		t.Fatalf("report differs from per-device analysis:\n--- streamed\n%s--- analyzed\n%s", got, want)
	}

	// The timeline: sessions, lanes, durations and export bytes.
	tl, old := res.Telemetry.Timeline, oracleTimeline(streams, plane)
	if len(tl.Sessions) != len(old.Sessions) {
		t.Fatalf("sessions = %d, oracle %d", len(tl.Sessions), len(old.Sessions))
	}
	impostor := false
	for i := range tl.Sessions {
		got, want := tl.Sessions[i], old.Sessions[i]
		if (got.Plane == nil) != (want.Plane == nil) ||
			(got.Plane != nil && !reflect.DeepEqual(*got.Plane, *want.Plane)) {
			t.Fatalf("session %s: plane decision %v, oracle %v", got.Key, got.Plane, want.Plane)
		}
		got.Plane, want.Plane = nil, nil
		if got != want {
			t.Fatalf("session %d = %+v, oracle %+v", i, got, want)
		}
		if got.Device == "dev-stranger" && tl.Sessions[i].Correlated() {
			impostor = true
		}
	}
	if !impostor {
		t.Fatal("the impostor's refused session is missing or uncorrelated")
	}
	if len(tl.Lanes) != len(old.Lanes) {
		t.Fatalf("lanes = %d, oracle %d", len(tl.Lanes), len(old.Lanes))
	}
	for i := range tl.Lanes {
		got, want := tl.Lanes[i], old.Lanes[i]
		if got.Name != want.Name || !eventsEqual(got.Events, want.Events) || !spansEqual(got.Spans, want.Spans) {
			t.Fatalf("lane %d (%s) differs from the oracle's (%s)", i, got.Name, want.Name)
		}
	}
	if got, want := tl.E2E(), old.E2E(); !slices.Equal(got, want) {
		t.Fatalf("E2E = %v, oracle %v", got, want)
	}
	var gotTrace, wantTrace bytes.Buffer
	if err := tl.WriteChromeTrace(&gotTrace); err != nil {
		t.Fatal(err)
	}
	if err := old.WriteChromeTrace(&wantTrace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotTrace.Bytes(), wantTrace.Bytes()) {
		t.Fatal("Chrome export differs from the oracle's")
	}

	// Incidents: each frozen window with every plane decision about its
	// device, found by scanning the whole plane stream.
	incidents := res.Telemetry.Incidents
	if len(incidents) < 2 {
		t.Fatalf("incidents = %d, want the quarantined devices and the impostor's", len(incidents))
	}
	oracle := make([]Incident, len(incidents))
	for i, inc := range incidents {
		oracle[i] = inc
		oracle[i].Plane = nil
		for _, e := range plane {
			if e.Subject == inc.Device {
				oracle[i].Plane = append(oracle[i].Plane, e)
			}
		}
	}
	var gotInc, wantInc bytes.Buffer
	if err := WriteIncidents(&gotInc, incidents); err != nil {
		t.Fatal(err)
	}
	if err := WriteIncidents(&wantInc, oracle); err != nil {
		t.Fatal(err)
	}
	if gotInc.String() != wantInc.String() {
		t.Fatalf("incidents differ:\n--- per-device\n%s--- oracle\n%s", gotInc.String(), wantInc.String())
	}

	// Observe alone streams the same round-trip and session spans.
	obs := cfg
	obs.Telemetry, obs.Observe = TelemetryConfig{}, true
	resObs, err := run(obs, stranger((*Plane).attest))
	if err != nil {
		t.Fatal(err)
	}
	if resObs.Report.AttestRTT != rep.AttestRTT || resObs.Report.SessionE2E != rep.SessionE2E {
		t.Fatalf("Observe-only stats rtt %+v e2e %+v, telemetry-on %+v %+v",
			resObs.Report.AttestRTT, resObs.Report.SessionE2E, rep.AttestRTT, rep.SessionE2E)
	}
	if resObs.Events != nil || resObs.Telemetry != nil {
		t.Fatal("Observe-only run collected events or telemetry")
	}
}
