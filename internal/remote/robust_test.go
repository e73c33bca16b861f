package remote

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/trusted"
)

// TestAttestTimesOutOnSilentPeer: a device that never answers (or never
// reads) cannot hang the verifier past its deadline.
func TestAttestTimesOutOnSilentPeer(t *testing.T) {
	p, e := devicePlatform(t)
	c := oemClient(p, ClientOptions{Timeout: 50 * time.Millisecond})
	// No server goroutine: the pipe blocks forever.
	_, verConn := net.Pipe()
	defer verConn.Close()
	_, err := c.Attest(verConn, e.ID, 1)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestServeOneTimesOutOnSilentClient: a client that connects and goes
// silent cannot hang the device.
func TestServeOneTimesOutOnSilentClient(t *testing.T) {
	p, _ := devicePlatform(t)
	devConn, verConn := net.Pipe()
	defer verConn.Close()
	defer devConn.Close()
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{Timeout: 50 * time.Millisecond})
	err := srv.ServeOne(devConn)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestVerifierSessionTimesOut: a verifier session served over a conn
// bounds each frame by the client's Timeout. A device silent before its
// hello ends the session unopened; one that goes silent after the
// challenge has its exchange failed through the policy, like a bad
// quote.
func TestVerifierSessionTimesOut(t *testing.T) {
	p, e := devicePlatform(t)
	c := oemClient(p, ClientOptions{Timeout: 50 * time.Millisecond})

	devConn, verConn := net.Pipe()
	v := c.NewSession(&testPolicy{})
	if err := v.Serve(verConn); !errors.Is(err, ErrTimeout) || v.Opened() {
		t.Fatalf("silent device: err = %v, opened = %v; want ErrTimeout, unopened", err, v.Opened())
	}
	devConn.Close()
	verConn.Close()

	devConn, verConn = net.Pipe()
	defer devConn.Close()
	defer verConn.Close()
	pol := &testPolicy{nonce: 3, pass: true}
	done := make(chan error, 1)
	go func() { done <- c.NewSession(pol).Serve(verConn) }()
	hello, _ := marshalHello(Hello{Device: "dev-0", Provider: "oem", TruncID: e.ID.TruncatedID()})
	if err := writeFrame(devConn, DefaultMaxFrame, MsgHello, hello); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(devConn, DefaultMaxFrame); err != nil || typ != MsgChallenge {
		t.Fatalf("challenge: type %d, %v", typ, err)
	}
	// The device never quotes and never reads the verdict.
	if err := <-done; !errors.Is(err, ErrTimeout) {
		t.Fatalf("stalled device: err = %v, want ErrTimeout", err)
	}
	if !pol.decided || !errors.Is(pol.err, ErrTimeout) {
		t.Fatalf("policy: decided = %v, err = %v; want a failed exchange", pol.decided, pol.err)
	}
}

// TestServeConnPersistent: several exchanges on one connection, then a
// clean shutdown.
func TestServeConnPersistent(t *testing.T) {
	p, e := devicePlatform(t)
	c := oemClient(p, ClientOptions{})
	devConn, verConn := net.Pipe()
	done := make(chan error, 1)
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{})
	go func() {
		done <- srv.ServeConn(devConn)
	}()
	for nonce := uint64(1); nonce <= 3; nonce++ {
		q, err := c.Attest(verConn, e.ID, nonce)
		if err != nil {
			t.Fatalf("nonce %d: %v", nonce, err)
		}
		if q.Nonce != nonce {
			t.Errorf("echoed nonce %d, want %d", q.Nonce, nonce)
		}
	}
	verConn.Close()
	if err := <-done; err != nil {
		t.Fatalf("server exit = %v, want nil on clean close", err)
	}
}

// TestServeConnErrorBudget: a peer spewing malformed frames gets
// dropped after the budget, not served forever.
func TestServeConnErrorBudget(t *testing.T) {
	p, _ := devicePlatform(t)
	devConn, verConn := net.Pipe()
	done := make(chan error, 1)
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{ErrorBudget: 3})
	go func() {
		done <- srv.ServeConn(devConn)
	}()
	for i := 0; i < 3; i++ {
		if err := writeFrame(verConn, DefaultMaxFrame, MsgQuote, []byte("junk")); err != nil {
			t.Fatal(err)
		}
		// Drain the error reply so the pipe does not block.
		if typ, _, err := readFrame(verConn, DefaultMaxFrame); err != nil || typ != MsgError {
			t.Fatalf("reply %d: type %d err %v", i, typ, err)
		}
	}
	err := <-done
	if !errors.Is(err, ErrErrorBudget) {
		t.Fatalf("server exit = %v, want ErrErrorBudget", err)
	}
	verConn.Close()
}

// pipeDialer dials a fresh in-memory connection to a ServeOne instance,
// failing the first failures dials.
func pipeDialer(att Attestor, failures int) (func() (net.Conn, error), *int) {
	srv := NewServer(att, ServerOptions{})
	dials := 0
	dial := func() (net.Conn, error) {
		dials++
		if dials <= failures {
			return nil, fmt.Errorf("dial refused (attempt %d)", dials)
		}
		devConn, verConn := net.Pipe()
		go func() {
			srv.ServeOne(devConn)
			devConn.Close()
		}()
		return verConn, nil
	}
	return dial, &dials
}

// TestAttestRetryRecoversFromFlakyDials: two dial failures, then
// success; backoff doubles and the succeeding attempt used a fresh
// nonce.
func TestAttestRetryRecoversFromFlakyDials(t *testing.T) {
	p, e := devicePlatform(t)
	dial, dials := pipeDialer(ComponentsAttestor{C: p.C}, 2)
	var sleeps []time.Duration
	c := oemClient(p, ClientOptions{
		Attempts: 4,
		Backoff:  time.Millisecond,
		Sleep:    func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	q, attempts, err := c.AttestRetry(dial, e.ID, 100)
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if attempts != 3 || *dials != 3 {
		t.Errorf("attempts = %d, dials = %d, want 3", attempts, *dials)
	}
	// Fresh nonce per attempt: base 100, third attempt → 102.
	if q.Nonce != 102 {
		t.Errorf("nonce = %d, want 102", q.Nonce)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	if len(sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Errorf("sleep %d = %v, want %v (exponential backoff)", i, sleeps[i], want[i])
		}
	}
}

// TestAttestRetryStopsOnAuthoritativeRefusal: a device that answers
// "unknown identity" is believed the first time; retrying is pointless.
func TestAttestRetryStopsOnAuthoritativeRefusal(t *testing.T) {
	p, _ := devicePlatform(t)
	dial, dials := pipeDialer(ComponentsAttestor{C: p.C}, 0)
	im, err2 := asm.Assemble(".task \"ghost2\"\n.entry e\n.text\ne:\n hlt\n")
	if err2 != nil {
		t.Fatal(err2)
	}
	ghost := trusted.IdentityOfImage(im)
	c := oemClient(p, ClientOptions{
		Attempts: 5,
		Backoff:  time.Millisecond,
		Sleep:    func(time.Duration) {},
	})
	_, attempts, err := c.AttestRetry(dial, ghost, 1)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if attempts != 1 || *dials != 1 {
		t.Errorf("attempts = %d, dials = %d; refusal must not be retried", attempts, *dials)
	}
}

// TestAttestRetryExhausts: if every attempt fails on transport, the
// error reports the bounded attempt count.
func TestAttestRetryExhausts(t *testing.T) {
	p, e := devicePlatform(t)
	dial, dials := pipeDialer(ComponentsAttestor{C: p.C}, 100) // always refuse
	c := oemClient(p, ClientOptions{
		Attempts: 3,
		Backoff:  time.Millisecond,
		Sleep:    func(time.Duration) {},
	})
	_, attempts, err := c.AttestRetry(dial, e.ID, 1)
	if err == nil {
		t.Fatal("retry succeeded against a dead network")
	}
	if attempts != 3 || *dials != 3 {
		t.Errorf("attempts = %d, dials = %d, want 3", attempts, *dials)
	}
}

// TestAttestRetryWallBudget: against a dead network the loop stops as
// soon as the next backoff sleep would exceed the wall budget —
// typed as ErrRetryBudget, still wrapping the transport cause, and
// never oversleeping the budget.
func TestAttestRetryWallBudget(t *testing.T) {
	p, e := devicePlatform(t)
	errDown := errors.New("network down")
	dials := 0
	dial := func() (net.Conn, error) {
		dials++
		return nil, errDown
	}
	var sleeps []time.Duration
	// Backoff schedule 1,2,4,8… ms: 1ms and 2ms fit in the 4ms budget,
	// the 4ms third sleep would total 7ms — refused.
	c := oemClient(p, ClientOptions{
		Attempts:   8,
		Backoff:    time.Millisecond,
		WallBudget: 4 * time.Millisecond,
		Sleep:      func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	_, attempts, err := c.AttestRetry(dial, e.ID, 1)
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	if !errors.Is(err, errDown) {
		t.Errorf("budget error %v does not wrap the transport cause", err)
	}
	if attempts != 3 || dials != 3 {
		t.Errorf("attempts = %d, dials = %d, want 3 (1ms+2ms spent, 4ms refused)", attempts, dials)
	}
	var total time.Duration
	for _, d := range sleeps {
		total += d
	}
	if total > 4*time.Millisecond {
		t.Errorf("slept %v, more than the %v budget", total, 4*time.Millisecond)
	}
}

// TestAttestRetryWallBudgetGenerous: a budget that covers the whole
// schedule changes nothing — flaky dials still recover.
func TestAttestRetryWallBudgetGenerous(t *testing.T) {
	p, e := devicePlatform(t)
	dial, dials := pipeDialer(ComponentsAttestor{C: p.C}, 2)
	c := oemClient(p, ClientOptions{
		Attempts:   4,
		Backoff:    time.Millisecond,
		WallBudget: time.Second,
		Sleep:      func(time.Duration) {},
	})
	q, attempts, err := c.AttestRetry(dial, e.ID, 50)
	if err != nil {
		t.Fatalf("retry failed under a generous budget: %v", err)
	}
	if attempts != 3 || *dials != 3 {
		t.Errorf("attempts = %d, dials = %d, want 3", attempts, *dials)
	}
	if q.Nonce != 52 {
		t.Errorf("nonce = %d, want 52", q.Nonce)
	}
}
