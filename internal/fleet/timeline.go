package fleet

import (
	"io"

	"repro/internal/trace"
)

// The fleet timeline merges N device event streams and the verifier
// plane's decision stream into one correlated, multi-lane Chrome trace.
// The two sides live in different time domains: device events carry
// that device's own simulated cycle counter, while plane events carry
// the device's session ordinal (a sequence number, not a time). The
// session key — trace.SessionKey(device, ordinal) — appears on both
// sides, so each plane decision can be re-anchored onto its device's
// cycle axis: the decision about session dev-0042#3 is pinned to the
// cycle at which dev-0042 saw session 3 close. Every correlated session
// renders as a pair of bars sharing the session key, one on the
// device's lane and one on the verifier-plane lane.
//
// Each device's half — its session records (sessionLog) and its lane
// (deviceLane) — is built in the device's own goroutine as its events
// are emitted. The serial merge (buildTimeline) only correlates the
// plane's decisions into those per-device lists, so assembly is linear
// in sessions plus decisions.

// Session is one attestation session reconstructed from the device-side
// KindSession bracket, possibly correlated with the plane's decision.
type Session struct {
	Key     string // trace.SessionKey(Device, Ordinal)
	Device  string
	Ordinal uint64
	Start   uint64 // device cycle at the hello
	End     uint64 // device cycle at the closing event (0 until closed)
	Outcome string // closing phase: verdict / refused / error ("" = unclosed)
	Result  string // verdict result: pass / fail ("" otherwise)
	// Plane is the verifier plane's decision about this session (nil =
	// the plane emitted none, e.g. a transport error before the gate).
	Plane *trace.Event
}

// Closed reports whether the session's device-side bracket completed.
func (s *Session) Closed() bool { return s.Outcome != "" }

// Correlated reports whether both sides of the session are present: a
// closed device-side bracket and a plane-side decision sharing the key.
func (s *Session) Correlated() bool { return s.Closed() && s.Plane != nil }

// Timeline is the assembled fleet timeline.
type Timeline struct {
	// Lanes is the Chrome trace layout: lane 0 is the verifier plane,
	// then one lane per device in input order.
	Lanes []trace.Lane
	// Sessions lists every reconstructed session in device order, then
	// per device in stream order.
	Sessions []Session
}

// sessionLog is one device's streamed session telemetry: a trace.Sink
// on the platform's fan-out, next to the event buffer and the flight
// recorder, fed in the device's own goroutine as events are emitted.
// It keeps the two duration lists the report pools — the attest
// round-trip from each SubRemote/KindAttest reply's rtt, and the
// session end-to-end time from each closing KindSession event's e2e —
// and, when track is set, the device's Session records in stream order.
type sessionLog struct {
	rtt, e2e []uint64
	track    bool
	sessions []Session
}

// newSessionLog sizes a log for a device that runs rounds sessions.
func newSessionLog(rounds int, track bool) *sessionLog {
	l := &sessionLog{rtt: make([]uint64, 0, rounds), e2e: make([]uint64, 0, rounds), track: track}
	if track {
		l.sessions = make([]Session, 0, rounds)
	}
	return l
}

// Emit implements trace.Sink.
func (l *sessionLog) Emit(e trace.Event) {
	if e.Sub != trace.SubRemote {
		return
	}
	switch e.Kind {
	case trace.KindAttest:
		if ph, _ := e.Attr("phase"); ph.Str == "request" {
			return
		}
		if rtt, ok := e.NumAttr("rtt"); ok {
			l.rtt = append(l.rtt, rtt)
		}
	case trace.KindSession:
		phase, hasPhase := e.Attr("phase")
		if phase.Str != "hello" {
			if d, ok := e.NumAttr("e2e"); ok {
				l.e2e = append(l.e2e, d)
			}
		}
		if n, ok := e.NumAttr("session"); ok && hasPhase && l.track {
			l.record(e, n, phase.Str)
		}
	}
}

// record applies one bracket event: a hello opens session (subject, n)
// unless it already exists; any other phase closes it if still open.
func (l *sessionLog) record(e trace.Event, n uint64, phase string) {
	i := findSession(l.sessions, e.Subject, n)
	if phase == "hello" {
		if i < 0 {
			l.sessions = append(l.sessions, Session{
				Key: trace.SessionKey(e.Subject, n), Device: e.Subject, Ordinal: n, Start: e.Cycle,
			})
		}
		return
	}
	if i >= 0 && !l.sessions[i].Closed() {
		s := &l.sessions[i]
		s.End = e.Cycle
		s.Outcome = phase
		if r, ok := e.Attr("result"); ok {
			s.Result = r.Str
		}
	}
}

// findSession returns the index of session (device, n) in ss, or -1.
// The farm's ordinal is the round index, so ss[n] is tried first.
func findSession(ss []Session, device string, n uint64) int {
	if n < uint64(len(ss)) && ss[n].Ordinal == n && ss[n].Device == device {
		return int(n)
	}
	for i := range ss {
		if ss[i].Ordinal == n && ss[i].Device == device {
			return i
		}
	}
	return -1
}

// deviceLane lays out one device's lane: its full event stream plus a
// bar per closed session of its own, named by the session key it
// shares with the plane's bar.
func deviceLane(name string, events []trace.Event, sessions []Session) trace.Lane {
	lane := trace.Lane{Name: "device/" + name, Events: events}
	closed := 0
	for i := range sessions {
		if sessions[i].Device == name && sessions[i].Closed() {
			closed++
		}
	}
	if closed == 0 {
		return lane
	}
	lane.Spans = make([]trace.ChromeSpan, 0, closed)
	arena := make([]trace.Attr, 0, 3*closed)
	for i := range sessions {
		s := &sessions[i]
		if s.Device != name || !s.Closed() {
			continue
		}
		at := len(arena)
		arena = append(arena, trace.Str("phase", s.Outcome))
		if s.Result != "" {
			arena = append(arena, trace.Str("result", s.Result))
		}
		arena = append(arena, trace.Num("session", s.Ordinal))
		lane.Spans = append(lane.Spans, trace.ChromeSpan{
			Name: s.Key, Subject: s.Device, Start: s.Start, Dur: s.End - s.Start,
			Attrs: arena[at:len(arena):len(arena)],
		})
	}
	return lane
}

// subjectIndex maps each device name, and each other subject a device
// stream's sessions carry, to the index of the stream that recorded it.
// The farm guarantees what the merge relies on: a session key belongs
// to exactly one device stream (each hello names its own device, or —
// for a refused impostor — a name no device in the fleet has).
func subjectIndex(results []deviceResult) map[string]int {
	idx := make(map[string]int, len(results))
	for i := range results {
		idx[results[i].name] = i
	}
	for i := range results {
		for j := range results[i].sessions {
			if d := results[i].sessions[j].Device; d != results[i].name {
				if _, ok := idx[d]; !ok {
					idx[d] = i
				}
			}
		}
	}
	return idx
}

// planeRun is one subject's contiguous run of the sorted plane stream,
// tagged with the device stream recording that subject's sessions
// (-1 = none).
type planeRun struct {
	device int
	events []trace.Event
}

// planeRuns splits the plane stream — sorted by subject — into one run
// per subject. Each run's events are capped, so appending to one never
// writes into the next.
func planeRuns(plane []trace.Event, idx map[string]int) []planeRun {
	var runs []planeRun
	for lo := 0; lo < len(plane); {
		hi := lo + 1
		for hi < len(plane) && plane[hi].Subject == plane[lo].Subject {
			hi++
		}
		dev, ok := idx[plane[lo].Subject]
		if !ok {
			dev = -1
		}
		runs = append(runs, planeRun{device: dev, events: plane[lo:hi:hi]})
		lo = hi
	}
	return runs
}

// buildTimeline merges the devices' session records and lanes — built
// in their own goroutines — with the plane's decision stream (sorted by
// device, then ordinal), as split into runs by planeRuns. Sessions are
// concatenated in device order and each plane decision is correlated
// by (device, ordinal) into its device's list, so the merge is linear
// in sessions plus decisions. Inputs are not mutated; the output is a
// pure function of them, so a deterministic fleet run yields a
// byte-identical timeline.
func buildTimeline(results []deviceResult, runs []planeRun) *Timeline {
	total := 0
	for i := range results {
		total += len(results[i].sessions)
	}
	t := &Timeline{
		Sessions: make([]Session, 0, total),
		Lanes:    make([]trace.Lane, 0, len(results)+1),
	}
	base := make([]int, len(results)) // index of each device's first session
	for i := range results {
		base[i] = len(t.Sessions)
		t.Sessions = append(t.Sessions, results[i].sessions...)
	}

	// Lane 0: the verifier plane. Each decision keeps its own sequence
	// ordinal as a "seq" attr and is re-anchored to the correlated
	// session's closing device cycle, so the lane lines up with the
	// device lanes in the viewer. Uncorrelated decisions keep their
	// ordinal as the timestamp (there is no cycle to anchor to).
	nevents, nattrs := 0, 0
	for _, r := range runs {
		nevents += len(r.events)
		for i := range r.events {
			nattrs += len(r.events[i].Attrs) + 1
		}
	}
	arena := make([]trace.Attr, 0, nattrs)
	vp := trace.Lane{Name: "verifier-plane", Events: make([]trace.Event, 0, nevents)}
	for _, r := range runs {
		var own []Session
		if r.device >= 0 {
			own = t.Sessions[base[r.device] : base[r.device]+len(results[r.device].sessions)]
		}
		for i := range r.events {
			e := &r.events[i]
			anchored := *e
			at := len(arena)
			arena = append(append(arena, e.Attrs...), trace.Num("seq", e.Cycle))
			anchored.Attrs = arena[at:len(arena):len(arena)]
			if n, ok := e.NumAttr("session"); ok {
				if j := findSession(own, e.Subject, n); j >= 0 {
					s := &own[j]
					if e.Kind == trace.KindFleet && s.Plane == nil {
						s.Plane = e
					}
					if s.Closed() {
						anchored.Cycle = s.End
					}
				}
			}
			vp.Events = append(vp.Events, anchored)
		}
	}
	correlated, nattrs := 0, 0
	for i := range t.Sessions {
		if s := &t.Sessions[i]; s.Correlated() {
			correlated++
			nattrs += len(s.Plane.Attrs)
		}
	}
	vp.Spans = make([]trace.ChromeSpan, 0, correlated)
	arena = make([]trace.Attr, 0, nattrs)
	for i := range t.Sessions {
		s := &t.Sessions[i]
		if !s.Correlated() {
			continue
		}
		at := len(arena)
		arena = append(arena, s.Plane.Attrs...)
		vp.Spans = append(vp.Spans, trace.ChromeSpan{
			Name: s.Key, Subject: s.Device, Start: s.Start, Dur: s.End - s.Start,
			Attrs: arena[at:len(arena):len(arena)],
		})
	}
	t.Lanes = append(t.Lanes, vp)

	// One lane per device, laid out in the device's goroutine.
	for i := range results {
		t.Lanes = append(t.Lanes, results[i].lane)
	}
	return t
}

// CorrelatedCount returns how many sessions have both sides present.
func (t *Timeline) CorrelatedCount() int {
	n := 0
	for i := range t.Sessions {
		if t.Sessions[i].Correlated() {
			n++
		}
	}
	return n
}

// E2E returns the end-to-end device-cycle durations of the closed
// sessions, in session order — the feed for the plane's
// session-duration histogram.
func (t *Timeline) E2E() []uint64 {
	var out []uint64
	for i := range t.Sessions {
		if t.Sessions[i].Closed() {
			out = append(out, t.Sessions[i].End-t.Sessions[i].Start)
		}
	}
	return out
}

// WriteChromeTrace exports the timeline as multi-lane Chrome
// trace_event JSON.
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	return trace.WriteChromeTraceLanes(w, t.Lanes)
}
