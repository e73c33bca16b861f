package remote

import (
	"errors"
	"net"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/trusted"
)

const deviceTask = `
.task "fw"
.entry main
.stack 128
.bss 28
.text
main:
    ldi r0, 32000
    svc 2
    jmp main
`

func devicePlatform(t testing.TB) (*core.Platform, *trusted.RegistryEntry) {
	t.Helper()
	p, err := core.NewPlatform(core.Options{Provider: "oem"})
	if err != nil {
		t.Fatal(err)
	}
	im, err := asm.Assemble(deviceTask)
	if err != nil {
		t.Fatal(err)
	}
	tcb, _, err := p.LoadTaskSync(im, core.Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := p.C.RTM.LookupByTask(tcb.ID)
	if !ok {
		t.Fatal("task unregistered")
	}
	return p, e
}

func oemClient(p *core.Platform, opt ClientOptions) *Client {
	return NewClient(p.Provider("oem").Verifier(), "oem", opt)
}

// exchange runs one ServeOne/Attest pair over an in-memory pipe.
func exchange(t *testing.T, p *core.Platform, doVerify func(net.Conn) error) error {
	t.Helper()
	devConn, verConn := net.Pipe()
	done := make(chan error, 1)
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{})
	go func() {
		defer devConn.Close()
		done <- srv.ServeOne(devConn)
	}()
	verr := doVerify(verConn)
	verConn.Close()
	if serr := <-done; serr != nil {
		t.Logf("server: %v", serr)
	}
	return verr
}

func TestAttestOverWire(t *testing.T) {
	p, e := devicePlatform(t)
	c := oemClient(p, ClientOptions{})
	err := exchange(t, p, func(conn net.Conn) error {
		q, err := c.Attest(conn, e.ID, 0xA1B2)
		if err != nil {
			return err
		}
		if q.ID != e.ID || q.Nonce != 0xA1B2 {
			t.Errorf("quote = %+v", q)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("attest: %v", err)
	}
}

func TestAttestUnknownIdentity(t *testing.T) {
	p, _ := devicePlatform(t)
	c := oemClient(p, ClientOptions{})
	im, _ := asm.Assemble(".task \"ghost\"\n.entry e\n.text\ne:\n hlt\n")
	ghost := trusted.IdentityOfImage(im)
	err := exchange(t, p, func(conn net.Conn) error {
		_, err := c.Attest(conn, ghost, 1)
		return err
	})
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if !strings.Contains(err.Error(), "identity") {
		t.Errorf("err text = %v", err)
	}
}

func TestAttestWrongProviderKey(t *testing.T) {
	p, e := devicePlatform(t)
	// Verifier holds a different provider's key than it asks the device
	// to quote under: the MAC will not verify.
	c := NewClient(p.Provider("someone-else").Verifier(), "oem", ClientOptions{})
	err := exchange(t, p, func(conn net.Conn) error {
		_, err := c.Attest(conn, e.ID, 7)
		return err
	})
	if !errors.Is(err, trusted.ErrQuoteInvalid) {
		t.Fatalf("err = %v, want quote rejection", err)
	}
}

func TestReplayAcrossNonces(t *testing.T) {
	p, e := devicePlatform(t)
	c := oemClient(p, ClientOptions{})
	v := p.Provider("oem").Verifier()
	// Capture a quote at nonce 5, try to pass it off at nonce 6 by
	// replaying the raw frames through a recording proxy.
	var recorded []byte
	err := exchange(t, p, func(conn net.Conn) error {
		q, err := c.Attest(conn, e.ID, 5)
		if err != nil {
			return err
		}
		recorded = q.Marshal()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := trusted.UnmarshalQuote(recorded)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(q, e.ID, 6); err == nil {
		t.Fatal("replayed quote accepted under a fresh nonce")
	}
}

func TestServeOverTCP(t *testing.T) {
	p, e := devicePlatform(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer l.Close()
	go NewServer(ComponentsAttestor{C: p.C}, ServerOptions{}).Serve(l)

	c := oemClient(p, ClientOptions{})
	for nonce := uint64(1); nonce <= 3; nonce++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		q, err := c.Attest(conn, e.ID, nonce)
		conn.Close()
		if err != nil {
			t.Fatalf("nonce %d: %v", nonce, err)
		}
		if q.Nonce != nonce {
			t.Errorf("nonce echoed %d, want %d", q.Nonce, nonce)
		}
	}
}

func TestChallengeRoundTripQuick(t *testing.T) {
	f := func(provider string, trunc, nonce uint64) bool {
		if len(provider) > 255 {
			provider = provider[:255]
		}
		c := Challenge{Provider: provider, TruncID: trunc, Nonce: nonce}
		b, err := marshalChallenge(c)
		if err != nil {
			return false
		}
		out, err := unmarshalChallenge(b)
		return err == nil && out == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHelloRoundTripQuick(t *testing.T) {
	f := func(device, provider string, trunc, session uint64) bool {
		if len(device) > 255 {
			device = device[:255]
		}
		if len(provider) > 255 {
			provider = provider[:255]
		}
		h := Hello{Device: device, Provider: provider, TruncID: trunc, Session: session}
		b, err := marshalHello(h)
		if err != nil {
			return false
		}
		out, err := unmarshalHello(b)
		return err == nil && out == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// testPolicy admits every hello with a fixed nonce (or refuses it with
// a fixed reason) and answers every appraisal with a fixed verdict,
// recording what the session fed it.
type testPolicy struct {
	nonce   uint64
	refusal string
	pass    bool
	reason  string

	hello   Hello
	decided bool
	quote   trusted.Quote
	err     error
}

func (p *testPolicy) Admit(h Hello) (uint64, string) {
	p.hello = h
	return p.nonce, p.refusal
}

func (p *testPolicy) Decide(h Hello, q trusted.Quote, err error) (bool, string) {
	p.decided, p.quote, p.err = true, q, err
	return p.pass, p.reason
}

// pipeSession runs one device-initiated session over net.Pipe: the
// device's AttestTo on one end, a verifier session deciding through pol
// on the other. It returns both sides' errors.
func pipeSession(srv *Server, c *Client, pol Policy, h Hello) (devErr, verErr error) {
	devConn, verConn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		defer verConn.Close()
		done <- c.NewSession(pol).Serve(verConn)
	}()
	devErr = srv.AttestTo(srv.Conn(devConn), h)
	devConn.Close()
	return devErr, <-done
}

// directSession runs the same session in-process through Server.Direct.
func directSession(srv *Server, c *Client, pol Policy, h Hello) (devErr, verErr error) {
	v := c.NewSession(pol)
	devErr = srv.AttestTo(srv.Direct(v), h)
	return devErr, v.Close()
}

// transports are the two ways a device reaches a verifier session.
var transports = []struct {
	name string
	run  func(*Server, *Client, Policy, Hello) (error, error)
}{
	{"pipe", pipeSession},
	{"direct", directSession},
}

// TestAttestToChallenged: a device-initiated session against a plane
// that accepts the hello and challenges; the device's quote MAC-checks
// and carries the expected identity.
func TestAttestToChallenged(t *testing.T) {
	p, e := devicePlatform(t)
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{})
	c := oemClient(p, ClientOptions{})
	for _, tr := range transports {
		pol := &testPolicy{nonce: 99, pass: true}
		devErr, verErr := tr.run(srv, c, pol, Hello{Device: "dev-0", Provider: "oem", TruncID: e.ID.TruncatedID()})
		if devErr != nil || verErr != nil {
			t.Fatalf("%s: device %v, verifier %v", tr.name, devErr, verErr)
		}
		if h := pol.hello; h.Device != "dev-0" || h.Provider != "oem" || h.TruncID != e.ID.TruncatedID() {
			t.Fatalf("%s: hello = %+v", tr.name, h)
		}
		if !pol.decided || pol.err != nil || pol.quote.ID != e.ID || pol.quote.Nonce != 99 {
			t.Errorf("%s: decided=%v err=%v quote=%+v", tr.name, pol.decided, pol.err, pol.quote)
		}
	}
}

// TestAttestToSessionEvents: with Obs wired, AttestTo brackets the
// session in KindSession events — phase=hello at open, a closing
// phase=verdict event carrying the pass result and the device-cycle
// end-to-end latency — both stamped with the hello's session ordinal.
func TestAttestToSessionEvents(t *testing.T) {
	p, e := devicePlatform(t)
	buf := &trace.Buffer{}
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{Obs: buf, Cycles: p.M.Cycles})
	c := oemClient(p, ClientOptions{})
	pol := &testPolicy{nonce: 99, pass: true}
	devErr, verErr := pipeSession(srv, c, pol, Hello{Device: "dev-0", Provider: "oem", TruncID: e.ID.TruncatedID(), Session: 4})
	if devErr != nil || verErr != nil {
		t.Fatalf("device %v, verifier %v", devErr, verErr)
	}
	if pol.hello.Session != 4 {
		t.Fatalf("session ordinal = %d, want 4", pol.hello.Session)
	}

	evs := buf.Events()
	if len(evs) != 2 {
		t.Fatalf("session events = %d (%v), want 2", len(evs), evs)
	}
	open, closing := evs[0], evs[1]
	for i, ev := range evs {
		if ev.Sub != trace.SubRemote || ev.Kind != trace.KindSession || ev.Subject != "dev-0" {
			t.Fatalf("event %d = %v", i, ev)
		}
		if n, ok := ev.NumAttr("session"); !ok || n != 4 {
			t.Fatalf("event %d session ordinal = %d, %v", i, n, ok)
		}
	}
	if ph, _ := open.Attr("phase"); ph.Str != "hello" {
		t.Fatalf("open phase = %q", ph.Str)
	}
	if ph, _ := closing.Attr("phase"); ph.Str != "verdict" {
		t.Fatalf("close phase = %q", ph.Str)
	}
	if res, _ := closing.Attr("result"); res.Str != "pass" {
		t.Fatalf("close result = %q", res.Str)
	}
	e2e, ok := closing.NumAttr("e2e")
	if !ok || e2e != closing.Cycle-open.Cycle {
		t.Fatalf("e2e = %d (ok=%v), span = %d", e2e, ok, closing.Cycle-open.Cycle)
	}
	if e2e == 0 {
		t.Fatal("e2e latency is zero; quoting should charge cycles")
	}
}

// TestAttestToDenied: a failed appraisal verdict surfaces as ErrDenied
// on the device, wrapping the plane's reason.
func TestAttestToDenied(t *testing.T) {
	p, e := devicePlatform(t)
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{})
	c := oemClient(p, ClientOptions{})
	for _, tr := range transports {
		pol := &testPolicy{nonce: 7, reason: "unknown measurement"}
		devErr, verErr := tr.run(srv, c, pol, Hello{Device: "dev-0", Provider: "oem", TruncID: e.ID.TruncatedID()})
		if verErr != nil {
			t.Fatalf("%s: verifier %v", tr.name, verErr)
		}
		if !errors.Is(devErr, ErrDenied) {
			t.Fatalf("%s: device side = %v, want ErrDenied", tr.name, devErr)
		}
		if !strings.Contains(devErr.Error(), "unknown measurement") {
			t.Errorf("%s: reason lost: %v", tr.name, devErr)
		}
	}
}

// TestAttestToRefused: a plane that refuses the hello surfaces as
// ErrRefused on the device, wrapping the plane's reason, and no
// appraisal runs.
func TestAttestToRefused(t *testing.T) {
	p, e := devicePlatform(t)
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{})
	c := oemClient(p, ClientOptions{})
	for _, tr := range transports {
		pol := &testPolicy{refusal: "device quarantined"}
		devErr, verErr := tr.run(srv, c, pol, Hello{Device: "dev-9", Provider: "oem", TruncID: e.ID.TruncatedID()})
		if verErr != nil {
			t.Fatalf("%s: verifier %v", tr.name, verErr)
		}
		if !errors.Is(devErr, ErrRefused) {
			t.Fatalf("%s: device err = %v, want ErrRefused", tr.name, devErr)
		}
		if !strings.Contains(devErr.Error(), "quarantined") {
			t.Errorf("%s: refusal reason lost: %v", tr.name, devErr)
		}
		if pol.decided {
			t.Errorf("%s: refused session reached Decide", tr.name)
		}
	}
}

// TestAttestToBadQuoteNeverPasses: a quote whose MAC does not verify
// under the verifier's key is failed even by a policy that would pass
// it, and the verifier reports the MAC error.
func TestAttestToBadQuoteNeverPasses(t *testing.T) {
	p, e := devicePlatform(t)
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{})
	wrongKey := NewClient(trusted.NewVerifier([]byte("not the platform key"), "oem"), "oem", ClientOptions{})
	for _, tr := range transports {
		pol := &testPolicy{nonce: 5, pass: true}
		devErr, verErr := tr.run(srv, wrongKey, pol, Hello{Device: "dev-0", Provider: "oem", TruncID: e.ID.TruncatedID()})
		if !errors.Is(devErr, ErrDenied) {
			t.Fatalf("%s: device err = %v, want ErrDenied", tr.name, devErr)
		}
		if !errors.Is(verErr, trusted.ErrQuoteInvalid) || !errors.Is(pol.err, trusted.ErrQuoteInvalid) {
			t.Fatalf("%s: verifier err = %v, policy saw %v; want ErrQuoteInvalid", tr.name, verErr, pol.err)
		}
	}
}

// TestDirectFrameLimits: the in-process transport enforces both sides'
// frame limits like a socket. A hello over the device's own limit never
// leaves the device; a challenge over the device's limit fails the
// session on the device, and the verifier, seeing the link drop, fails
// the exchange.
func TestDirectFrameLimits(t *testing.T) {
	p, e := devicePlatform(t)
	c := oemClient(p, ClientOptions{})
	long := Hello{Device: strings.Repeat("d", 40), Provider: "oem", TruncID: e.ID.TruncatedID()}

	tiny := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{MaxFrame: 16})
	pol := &testPolicy{pass: true}
	devErr, verErr := directSession(tiny, c, pol, long)
	if !errors.Is(devErr, ErrFrameTooLarge) {
		t.Fatalf("oversize hello: device err = %v, want ErrFrameTooLarge", devErr)
	}
	if verErr == nil || pol.hello.Device != "" {
		t.Fatalf("oversize hello reached the verifier: err=%v hello=%+v", verErr, pol.hello)
	}

	// 64 bytes carry the hello but not the challenge (provider, trunc
	// and nonce plus a long provider name).
	c = NewClient(trusted.NewVerifier(nil, strings.Repeat("p", 80)), strings.Repeat("p", 80), ClientOptions{})
	small := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{MaxFrame: 64})
	pol = &testPolicy{pass: true}
	devErr, verErr = directSession(small, c, pol, Hello{Device: "dev-0", Provider: "oem"})
	if !errors.Is(devErr, ErrFrameTooLarge) {
		t.Fatalf("oversize challenge: device err = %v, want ErrFrameTooLarge", devErr)
	}
	if !pol.decided || pol.err == nil || verErr == nil {
		t.Fatalf("oversize challenge: decided=%v policy err=%v verifier err=%v", pol.decided, pol.err, verErr)
	}
}

func TestMalformedFrames(t *testing.T) {
	p, _ := devicePlatform(t)
	devConn, verConn := net.Pipe()
	done := make(chan error, 1)
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{})
	go func() {
		defer devConn.Close()
		done <- srv.ServeOne(devConn)
	}()
	// Send a non-challenge frame.
	if err := writeFrame(verConn, DefaultMaxFrame, MsgQuote, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(verConn, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError {
		t.Errorf("reply type = %d, payload %q", typ, payload)
	}
	verConn.Close()
	if err := <-done; err == nil {
		t.Error("server accepted junk")
	}
}

func TestFrameLimits(t *testing.T) {
	if err := writeFrame(discard{}, DefaultMaxFrame, MsgQuote, make([]byte, DefaultMaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized write = %v", err)
	}
	// Oversized length prefix on read.
	r := strings.NewReader("\xff\xff\xff\xff")
	if _, _, err := readFrame(r, DefaultMaxFrame); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized read = %v", err)
	}
	// Zero-length frame.
	r = strings.NewReader("\x00\x00\x00\x00")
	if _, _, err := readFrame(r, DefaultMaxFrame); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("zero frame = %v", err)
	}
}

// TestMaxFrameOption: the frame limit is per Server/Client, not a
// package constant. A server with a small limit rejects frames a
// default client would send; a client with a raised limit accepts
// frames beyond DefaultMaxFrame.
func TestMaxFrameOption(t *testing.T) {
	p, e := devicePlatform(t)
	// Server limited to 16-byte frames: the client's challenge (> 16
	// bytes with the provider string) is rejected on read and answered
	// with nothing — the client sees the pipe close.
	devConn, verConn := net.Pipe()
	done := make(chan error, 1)
	small := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{MaxFrame: 16})
	go func() {
		defer devConn.Close()
		done <- small.ServeOne(devConn)
	}()
	c := oemClient(p, ClientOptions{})
	if _, err := c.Attest(verConn, e.ID, 1); err == nil {
		t.Error("attest succeeded against a server that cannot read the challenge")
	}
	verConn.Close()
	if err := <-done; !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("server err = %v, want ErrFrameTooLarge", err)
	}

	// A raised limit carries payloads DefaultMaxFrame would reject —
	// same writer, bigger budget.
	big := make([]byte, DefaultMaxFrame+100)
	if err := writeFrame(discard{}, DefaultMaxFrame, MsgQuote, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("default limit accepted oversize frame: %v", err)
	}
	if err := writeFrame(discard{}, 2*DefaultMaxFrame, MsgQuote, big); err != nil {
		t.Errorf("raised limit rejected in-budget frame: %v", err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
