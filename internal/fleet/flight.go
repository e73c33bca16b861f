package fleet

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/trace"
)

// Flight recorder: a bounded trace.Ring attached to a device's event
// stream that freezes its window when something goes wrong, so the last
// N events before an incident survive even though full event collection
// may be off or long since wrapped. The trigger set is the fleet's
// "something a human will ask about" list: a session refused because
// the device is quarantined, an online SLO violation, and a secure
// update unwound by rollback. Only the first trigger freezes the
// window — the recorder keeps recording afterwards, but the incident
// snapshot stays the one taken at the moment of the trip.

// Flight-recorder trigger names.
const (
	TriggerQuarantineRefusal = "quarantine-refusal"
	TriggerSLOViolation      = "slo-violation"
	TriggerUpdateRollback    = "update-rollback"
)

// Recorder is one device's flight recorder: a bounded event window
// with auto-trip. It is a trace.Sink — attach it as an extra sink next
// to the device's buffer.
type Recorder struct {
	device string
	ring   *trace.Ring

	mu      sync.Mutex
	trigger string // "" until tripped
	cycle   uint64
	window  []trace.Event
}

// NewRecorder builds a flight recorder for the named device with a
// bounded window of capacity events.
func NewRecorder(device string, capacity int) *Recorder {
	return &Recorder{device: device, ring: trace.NewRing(capacity)}
}

// Emit records the event and trips the recorder when the event matches
// a trigger. The first trip freezes the incident window; later
// triggers are recorded as ordinary events but do not re-freeze.
func (r *Recorder) Emit(e trace.Event) {
	r.ring.Emit(e)
	trigger := ""
	switch e.Kind {
	case trace.KindSession:
		if a, ok := e.Attr("phase"); ok && a.Str == "refused" {
			trigger = TriggerQuarantineRefusal
		}
	case trace.KindSLOViolation:
		trigger = TriggerSLOViolation
	case trace.KindUpdateRolledBack:
		trigger = TriggerUpdateRollback
	}
	if trigger == "" {
		return
	}
	r.mu.Lock()
	if r.trigger == "" {
		r.trigger = trigger
		r.cycle = e.Cycle
		r.window = r.ring.Snapshot()
	}
	r.mu.Unlock()
}

// Tripped reports whether an incident froze the window.
func (r *Recorder) Tripped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trigger != ""
}

// Incident is one frozen flight window, correlated with the plane's
// decisions about the same device.
type Incident struct {
	Device  string
	Trigger string
	Cycle   uint64        // device cycle of the triggering event
	Window  []trace.Event // the frozen flight window, oldest first
	Plane   []trace.Event // the plane's decisions about this device
}

// Incident extracts the frozen incident, attaching decisions: the
// plane's decisions about this device, in plane order. ok is false when
// the recorder never tripped.
func (r *Recorder) Incident(decisions []trace.Event) (inc Incident, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.trigger == "" {
		return Incident{}, false
	}
	inc = Incident{
		Device:  r.device,
		Trigger: r.trigger,
		Cycle:   r.cycle,
		Window:  append([]trace.Event(nil), r.window...),
		Plane:   decisions,
	}
	return inc, true
}

// WriteIncidents renders incident reports as deterministic text: the
// trigger line, the frozen device-side window, and the plane's
// correlated decision stream.
func WriteIncidents(w io.Writer, incidents []Incident) error {
	if len(incidents) == 0 {
		_, err := fmt.Fprintln(w, "no incidents")
		return err
	}
	for i, inc := range incidents {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "incident: device %s, trigger %s, cycle %d\n",
			inc.Device, inc.Trigger, inc.Cycle)
		fmt.Fprintf(w, "  flight window (%d events):\n", len(inc.Window))
		for _, e := range inc.Window {
			fmt.Fprintf(w, "    %s\n", e.String())
		}
		fmt.Fprintf(w, "  plane decisions (%d):\n", len(inc.Plane))
		for _, e := range inc.Plane {
			if _, err := fmt.Fprintf(w, "    %s\n", e.String()); err != nil {
				return err
			}
		}
	}
	return nil
}
