package fleet

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/sha1"
	"repro/internal/telf"
	"repro/internal/trace"
	"repro/internal/trusted"
)

func attr(e trace.Event, key string) (string, bool) {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value(), true
		}
	}
	return "", false
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry(2)
	r.Register("dev-a")
	r.Register("dev-a") // idempotent

	if d, ok := r.Lookup("dev-a"); !ok || d.State != DeviceHealthy {
		t.Fatalf("fresh device: %+v ok=%v", d, ok)
	}
	if d := r.NoteFail("dev-a"); d.State != DeviceSuspect || d.Failures != 1 {
		t.Fatalf("after one failure: %+v", d)
	}
	if d := r.NotePass("dev-a"); d.State != DeviceHealthy || d.Passes != 1 {
		t.Fatalf("suspect should recover on pass: %+v", d)
	}
	r.NoteFail("dev-a")
	if d := r.NoteFail("dev-a"); d.State != DeviceQuarantined || d.Failures != 3 {
		t.Fatalf("budget exhausted should quarantine: %+v", d)
	}
	// Quarantine is sticky: a later pass does not un-condemn.
	if d := r.NotePass("dev-a"); d.State != DeviceQuarantined {
		t.Fatalf("quarantine must be sticky: %+v", d)
	}
	if !r.Quarantined("dev-a") {
		t.Fatal("Quarantined(dev-a) = false")
	}
	h, s, q := r.Counts()
	if h != 0 || s != 0 || q != 1 {
		t.Fatalf("Counts = %d/%d/%d, want 0/0/1", h, s, q)
	}
}

// TestRegistryConcurrent races registrations, verdicts, quarantines and
// snapshots across goroutines; -race is the assertion, plus conserved
// totals afterwards.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry(0)
	const devices = 16
	const perDevice = 48
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := DeviceName(i)
			r.Register(name)
			for k := 0; k < perDevice; k++ {
				switch k % 4 {
				case 0:
					r.NotePass(name)
				case 1:
					r.NoteFail(name)
				case 2:
					r.Lookup(name)
					r.NotePass(name)
				case 3:
					r.Snapshot()
					r.NotePass(name)
				}
			}
		}(i)
	}
	// A racing reader hammering the aggregate views.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 200; k++ {
			r.Counts()
			r.Snapshot()
			r.Len()
		}
	}()
	wg.Wait()

	if r.Len() != devices {
		t.Fatalf("Len = %d, want %d", r.Len(), devices)
	}
	for _, d := range r.Snapshot() {
		if d.Passes != 3*perDevice/4 || d.Failures != perDevice/4 {
			t.Fatalf("%s: passes=%d failures=%d, want %d/%d",
				d.Name, d.Passes, d.Failures, 3*perDevice/4, perDevice/4)
		}
	}
}

func TestCacheHitMiss(t *testing.T) {
	good := sha1.Sum1([]byte("published"))
	bad := sha1.Sum1([]byte("tampered"))
	c := NewCache([]sha1.Digest{good})

	if ok, hit := c.Appraise(good); !ok || hit {
		t.Fatalf("first good appraisal: ok=%v hit=%v, want true/false", ok, hit)
	}
	if ok, hit := c.Appraise(good); !ok || !hit {
		t.Fatalf("second good appraisal: ok=%v hit=%v, want true/true", ok, hit)
	}
	if ok, hit := c.Appraise(bad); ok || hit {
		t.Fatalf("first bad appraisal: ok=%v hit=%v, want false/false", ok, hit)
	}
	if ok, hit := c.Appraise(bad); ok || !hit {
		t.Fatalf("second bad appraisal: ok=%v hit=%v, want false/true", ok, hit)
	}
	if hits, misses := c.Counts(); hits != 2 || misses != 2 {
		t.Fatalf("Counts = %d/%d, want 2/2", hits, misses)
	}

	// Publishing the build invalidates the cached negative verdict.
	c.Allow(bad)
	if ok, hit := c.Appraise(bad); !ok || hit {
		t.Fatalf("appraisal after Allow: ok=%v hit=%v, want true/false", ok, hit)
	}
}

// Concurrent appraisals of the same digest: lookup and fill share one
// critical section, so misses stay equal to the number of distinct
// digests no matter how many devices race.
func TestCacheConcurrentMissCount(t *testing.T) {
	good := sha1.Sum1([]byte("published"))
	c := NewCache([]sha1.Digest{good})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if ok, _ := c.Appraise(good); !ok {
					t.Error("good digest appraised bad")
					return
				}
			}
		}()
	}
	wg.Wait()
	hits, misses := c.Counts()
	if misses != 1 || hits != 32*20-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, 32*20-1)
	}
}

// A quarantined device is refused at the hello — the device sees
// ErrRefused, the plane emits a typed SubFleet/KindFleet refusal event,
// and no challenge is issued.
func TestPlaneQuarantinedRefusal(t *testing.T) {
	reg := NewRegistry(0)
	reg.Register("dev-0000")
	reg.Quarantine("dev-0000")
	buf := new(trace.Buffer)
	client := remote.NewClient(trusted.NewVerifier(core.DevKey, "oem"), "oem", remote.ClientOptions{})
	plane := NewPlane(PlaneConfig{Client: client, Registry: reg, Obs: buf})

	// The refusal happens before any challenge, so the device needs no
	// real attestor behind its server.
	srv := remote.NewServer(remote.ComponentsAttestor{}, remote.ServerOptions{})
	err := plane.attest(srv, remote.Hello{Device: "dev-0000", Provider: "oem"})
	if !errors.Is(err, remote.ErrRefused) {
		t.Fatalf("attest = %v, want ErrRefused", err)
	}

	_, _, refused, errored := plane.Counts()
	if refused != 1 || errored != 0 {
		t.Fatalf("refused = %d, errored = %d, want 1/0", refused, errored)
	}
	if d, _ := reg.Lookup("dev-0000"); d.Refusals != 1 {
		t.Fatalf("registry refusals = %d, want 1", d.Refusals)
	}
	ev, ok := buf.First(trace.KindFleet, "dev-0000")
	if !ok {
		t.Fatalf("no KindFleet event for dev-0000; buffer:\n%s", buf.String())
	}
	if ev.Sub != trace.SubFleet {
		t.Fatalf("event subsystem = %v, want SubFleet", ev.Sub)
	}
	if what, _ := attr(ev, "what"); what != "refused" {
		t.Fatalf("event what = %q, want refused", what)
	}
	if reason, _ := attr(ev, "reason"); reason != "quarantined" {
		t.Fatalf("event reason = %q, want quarantined", reason)
	}
}

// An unknown device is refused unless the plane auto-enrolls.
func TestPlaneUnknownDevice(t *testing.T) {
	client := remote.NewClient(trusted.NewVerifier(core.DevKey, "oem"), "oem", remote.ClientOptions{})
	plane := NewPlane(PlaneConfig{Client: client})
	srv := remote.NewServer(remote.ComponentsAttestor{}, remote.ServerOptions{})
	err := plane.attest(srv, remote.Hello{Device: "dev-9999", Provider: "oem"})
	if !errors.Is(err, remote.ErrRefused) {
		t.Fatalf("attest = %v, want ErrRefused", err)
	}
	if _, ok := plane.Registry().Lookup("dev-9999"); ok {
		t.Fatal("refused device must not be enrolled")
	}
	if _, _, refused, _ := plane.Counts(); refused != 1 {
		t.Fatalf("refused = %d, want 1", refused)
	}
}

// pipeAttest serves a session over net.Pipe through Plane.HandleConn —
// the network path the TCP plane takes.
func pipeAttest(p *Plane, srv *remote.Server, h remote.Hello) error {
	devEnd, planeEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		p.HandleConn(planeEnd)
		close(done)
	}()
	err := srv.AttestTo(srv.Conn(devEnd), h)
	devEnd.Close()
	<-done
	return err
}

// stranger wraps attest so device 5's third hello claims the
// unregistered name "dev-stranger".
func stranger(attest attestFunc) attestFunc {
	return func(p *Plane, srv *remote.Server, h remote.Hello) error {
		if h.Device == DeviceName(5) && h.Session == 2 {
			h.Device = "dev-stranger"
		}
		return attest(p, srv, h)
	}
}

// TestTransportDifferential: the in-process farm path and the network
// path (net.Pipe + HandleConn) run the same session state machine, so
// one seed renders byte-identical reports and event streams over both —
// with faulty devices burning their budget into quarantine and one
// device's hello claiming an unregistered name.
func TestTransportDifferential(t *testing.T) {
	cfg := Config{
		Devices: 16, Rounds: 4, Shards: 4, Listeners: 3, Seed: 11,
		Variants: 3, Faulty: 2, MaxFailures: 2, CollectEvents: true,
	}
	direct, err := run(cfg, stranger((*Plane).attest))
	if err != nil {
		t.Fatal(err)
	}
	piped, err := run(cfg, stranger(pipeAttest))
	if err != nil {
		t.Fatal(err)
	}

	rep := direct.Report
	if rep.Quarantined == 0 || rep.Refused < 2 || rep.Errored != 0 {
		t.Fatalf("scenario not exercised: quarantined=%d refused=%d errored=%d",
			rep.Quarantined, rep.Refused, rep.Errored)
	}
	if a, b := direct.Report.Text(), piped.Report.Text(); a != b {
		t.Fatalf("reports differ:\n--- in-process\n%s--- pipe\n%s", a, b)
	}
	if len(direct.Events) == 0 || len(direct.Events) != len(piped.Events) {
		t.Fatalf("event counts: in-process %d, pipe %d", len(direct.Events), len(piped.Events))
	}
	for i := range direct.Events {
		if a, b := direct.Events[i].String(), piped.Events[i].String(); a != b {
			t.Fatalf("event %d differs:\n%s\nvs\n%s", i, a, b)
		}
	}
}

// relocTask carries relocations in text and data, so loading it patches
// absolute addresses — in device RAM, never in the image.
const relocTask = `
.task "reloc"
.entry main
.stack 128
.text
main:
    ldi32 r1, buf
    ldi32 r2, buf+4
    ld    r0, [r1+0]
    ldi   r0, 32000
    svc   2
    jmp   main
.data
buf:
    .word 0
    .word main
`

// TestSharedImageUnchangedByLoad: a fleet run shares one *telf.Image per
// build across every device and shard, which is sound only because
// LoadTaskSync treats the image as read-only. Concurrent loads on
// separate platforms (under -race in `make race`) must leave each image
// deep-equal to a copy taken before.
func TestSharedImageUnchangedByLoad(t *testing.T) {
	fw, err := VariantImage(0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := asm.Assemble(relocTask)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Relocs) == 0 {
		t.Fatal("reloc task assembled without relocations")
	}
	for _, im := range []*telf.Image{fw, rt} {
		want := *im
		want.Text, want.Data, want.Relocs = bytes.Clone(im.Text), bytes.Clone(im.Data), slices.Clone(im.Relocs)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := core.NewPlatform(core.Options{Provider: "oem", RAMSize: 2 << 20})
				if err != nil {
					t.Error(err)
					return
				}
				defer p.Close()
				if _, _, err := p.LoadTaskSync(im, core.Secure, 3); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if !reflect.DeepEqual(im, &want) {
			t.Fatalf("%s: image changed by loading:\n got %+v\nwant %+v", im.Name, im, &want)
		}
	}
}

// A small end-to-end farm: healthy devices attest every round, the
// faulty device burns its failure budget, is quarantined, and its later
// hellos are refused. Cache misses equal the number of distinct
// measurements the plane saw.
func TestFarmQuarantinesFaultyDevice(t *testing.T) {
	cfg := Config{
		Devices: 8, Rounds: 5, Shards: 4, Seed: 7,
		Variants: 2, Faulty: 1, MaxFailures: 2, Observe: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report

	if rep.Quarantined != 1 || len(rep.QuarantinedNames) != 1 {
		t.Fatalf("quarantined = %d (%v), want exactly 1", rep.Quarantined, rep.QuarantinedNames)
	}
	if rep.Healthy != 7 {
		t.Fatalf("healthy = %d, want 7", rep.Healthy)
	}
	// The faulty device fails MaxFailures appraisals, then its remaining
	// rounds are refused at the door.
	if rep.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", rep.Rejected)
	}
	if rep.Refused != 3 {
		t.Fatalf("refused = %d, want 3", rep.Refused)
	}
	if want := uint64(7 * 5); rep.Attested != want {
		t.Fatalf("attested = %d, want %d", rep.Attested, want)
	}
	if rep.Sessions != uint64(8*5) {
		t.Fatalf("sessions = %d, want %d", rep.Sessions, 8*5)
	}
	// Distinct measurements seen = distinct assigned variants + the one
	// unpublished build; every other appraisal is a cache hit.
	if rep.CacheMisses == 0 || rep.CacheMisses > uint64(cfg.Variants+1) {
		t.Fatalf("cache misses = %d, want within [1, %d]", rep.CacheMisses, cfg.Variants+1)
	}
	if rep.CacheHits+rep.CacheMisses != rep.Attested+rep.Rejected {
		t.Fatalf("cache totals %d+%d should equal appraisals %d",
			rep.CacheHits, rep.CacheMisses, rep.Attested+rep.Rejected)
	}
	if len(rep.Anomalies) != 1 || !rep.Anomalies[0].Faulty {
		t.Fatalf("anomalies = %+v, want the one faulty device", rep.Anomalies)
	}
	if got, want := rep.Anomalies[0].Name, rep.QuarantinedNames[0]; got != want {
		t.Fatalf("anomaly %s vs quarantined %s", got, want)
	}
	// Observability: every completed exchange produced an RTT span.
	if rep.AttestRTT.Count != int(rep.Attested+rep.Rejected) {
		t.Fatalf("rtt spans = %d, want %d", rep.AttestRTT.Count, rep.Attested+rep.Rejected)
	}
	if rep.AttestRTT.Min == 0 {
		t.Fatal("rtt min = 0, want positive cycles")
	}
}

// TestFleetCheck is the determinism gate (`make fleet-check`): the same
// config must render byte-identical reports across runs — under -race,
// with different shard/listener counts racing underneath.
func TestFleetCheck(t *testing.T) {
	cfg := Config{
		Devices: 24, Rounds: 4, Seed: 42,
		Variants: 3, Faulty: 2, MaxFailures: 2,
		Observe: true, CollectEvents: true,
	}
	run := func(shards, listeners int) (*Result, string) {
		c := cfg
		c.Shards = shards
		c.Listeners = listeners
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return res, res.Report.Text()
	}

	res1, text1 := run(3, 2)
	res2, _ := run(8, 6)
	// Shards/Listeners are config echo; everything below them must agree.
	res2.Report.Shards, res2.Report.Listeners = res1.Report.Shards, res1.Report.Listeners
	text2b := res2.Report.Text()
	res1.Report.Shards, res1.Report.Listeners = 3, 2

	if text1 != text2b {
		t.Fatalf("reports differ across shard counts:\n--- run1\n%s--- run2\n%s", text1, text2b)
	}
	if text1 == "" {
		t.Fatal("empty report")
	}

	// The combined event streams must agree too — device streams are
	// per-device deterministic, plane events are ordered by (device,
	// session ordinal).
	if len(res1.Events) == 0 {
		t.Fatal("no events collected")
	}
	if len(res1.Events) != len(res2.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(res1.Events), len(res2.Events))
	}
	for i := range res1.Events {
		if res1.Events[i].String() != res2.Events[i].String() {
			t.Fatalf("event %d differs:\n%s\nvs\n%s", i, res1.Events[i], res2.Events[i])
		}
	}

	// And a literal same-config double-run, the exact gate contract.
	_, again := run(3, 2)
	if again != text1 {
		t.Fatalf("same config, different report:\n--- first\n%s--- second\n%s", text1, again)
	}
}
