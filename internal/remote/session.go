package remote

import (
	"fmt"
	"io"
	"net"

	"repro/internal/trusted"
)

// The verifier side of a device-initiated session as a message-level
// state machine. It consumes device frames and produces reply frames;
// it never touches a socket. Serve drives it over a net.Conn (the TCP
// plane), and Server.Direct drives it from the device's own goroutine
// (the in-process fleet), so both paths run the same protocol code.

// Policy is the verifier plane's decision logic for device-initiated
// sessions. The session state machine owns the protocol and the MAC
// check; the policy owns who may attest and what counts as a pass.
type Policy interface {
	// Admit gates a well-formed hello. It returns the nonce to
	// challenge the device with, or a non-empty refusal reason that the
	// device receives in an error frame (ErrRefused on its side).
	Admit(h Hello) (nonce uint64, refusal string)
	// Decide appraises an admitted session. err is nil only when q is
	// a quote whose MAC verified under the nonce Admit issued;
	// otherwise err says why the exchange failed (bad MAC, stale nonce,
	// a device error frame, malformed or lost frames) and q is zero.
	// The verdict closes the session. A session whose exchange failed
	// is never passed, whatever Decide answers.
	Decide(h Hello, q trusted.Quote, err error) (pass bool, reason string)
}

// sessionState is where a verifier session stands in the exchange.
type sessionState uint8

const (
	awaitHello sessionState = iota // nothing received yet
	awaitQuote                     // challenge issued
	closed                         // verdict or refusal issued, or the session failed
)

// reply is the frame a verifier session answers with; typ 0 means
// no frame.
type reply struct {
	typ     byte
	payload []byte
}

// VerifierSession is one device-initiated session on the verifier
// side: hello → policy gate → challenge → MAC verification → policy
// verdict. Create one per session with Client.NewSession; it is not
// safe for concurrent use.
type VerifierSession struct {
	c      *Client
	pol    Policy
	state  sessionState
	opened bool // a well-formed hello reached Admit
	hello  Hello
	nonce  uint64
	err    error
}

// NewSession starts a verifier session that decides through pol.
func (c *Client) NewSession(pol Policy) *VerifierSession {
	return &VerifierSession{c: c, pol: pol}
}

// Opened reports whether a well-formed hello reached the policy's
// Admit: a session that failed before that never identified a device.
func (s *VerifierSession) Opened() bool { return s.opened }

// step consumes one device frame — or, when rerr is non-nil, the link
// failure that ended the device's frame stream — and returns the reply
// to send. It never panics on malformed input: every path ends in a
// reply, a recorded error, or both.
func (s *VerifierSession) step(typ byte, payload []byte, rerr error) reply {
	switch s.state {
	case awaitHello:
		if rerr != nil {
			return s.fail(rerr)
		}
		if typ != MsgHello {
			return s.fail(fmt.Errorf("%w: type %d, want hello", ErrBadMessage, typ))
		}
		h, err := unmarshalHello(payload)
		if err != nil {
			return s.fail(err)
		}
		s.hello, s.opened = h, true
		nonce, refusal := s.pol.Admit(h)
		if refusal != "" {
			s.state = closed
			return reply{MsgError, []byte(refusal)}
		}
		s.nonce = nonce
		ch, err := marshalChallenge(Challenge{Provider: s.c.provider, TruncID: h.TruncID, Nonce: nonce})
		if err != nil {
			return s.decide(trusted.Quote{}, err)
		}
		s.state = awaitQuote
		return reply{MsgChallenge, ch}
	case awaitQuote:
		if rerr != nil {
			return s.decide(trusted.Quote{}, rerr)
		}
		switch typ {
		case MsgQuote:
			q, err := trusted.UnmarshalQuote(payload)
			if err == nil {
				err = s.c.v.VerifyMAC(q, s.nonce)
			}
			if err != nil {
				return s.decide(trusted.Quote{}, err)
			}
			return s.decide(q, nil)
		case MsgError:
			return s.decide(trusted.Quote{}, fmt.Errorf("%w: %s", ErrRemote, payload))
		default:
			return s.decide(trusted.Quote{}, fmt.Errorf("%w: type %d, want quote", ErrBadMessage, typ))
		}
	}
	return reply{}
}

// fail closes the session before a hello was admitted: there is no
// device to answer.
func (s *VerifierSession) fail(err error) reply {
	s.state, s.err = closed, err
	return reply{}
}

// decide closes an admitted session with the policy's verdict. A failed
// exchange — which counts against the device like a bad measurement —
// is recorded as the session's error and can only fail.
func (s *VerifierSession) decide(q trusted.Quote, err error) reply {
	pass, reason := s.pol.Decide(s.hello, q, err)
	if err != nil {
		pass = false
	}
	s.state, s.err = closed, err
	payload := make([]byte, 0, 1+len(reason))
	if pass {
		payload = append(payload, 1)
	} else {
		payload = append(payload, 0)
	}
	return reply{MsgVerdict, append(payload, reason...)}
}

// deliver steps the session with one received frame (or receive error)
// and sends its reply on t. A reply that cannot be sent is a dead link:
// an open session fails on it and sends its verdict best-effort, and a
// closed one records the send error if it had none.
func (s *VerifierSession) deliver(t Transport, typ byte, payload []byte, rerr error) {
	r := s.step(typ, payload, rerr)
	if r.typ == 0 {
		return
	}
	err := t.Send(r.typ, r.payload)
	switch {
	case err == nil:
	case s.state != closed:
		if r := s.step(0, nil, err); r.typ != 0 {
			t.Send(r.typ, r.payload)
		}
	case s.err == nil:
		s.err = err
	}
}

// Serve runs the session over conn until it closes, bounding each
// frame's I/O by the client's Timeout and frame size by its MaxFrame.
// It returns the session's error: nil when a refusal or verdict was
// delivered, otherwise the protocol, appraisal or transport failure
// that ended it. A failed appraisal with a well-formed exchange is a
// normal outcome (nil).
func (s *VerifierSession) Serve(conn net.Conn) error {
	t := connTransport{conn: conn, max: s.c.opt.MaxFrame, timeout: s.c.opt.Timeout}
	for s.state != closed {
		typ, payload, err := t.Recv()
		s.deliver(t, typ, payload, err)
	}
	return s.err
}

// Close ends the session the way a device hang-up would if it is still
// open, and returns its error as Serve does. The in-process transport's
// owner calls it once the device side has returned.
func (s *VerifierSession) Close() error {
	if s.state != closed {
		s.step(0, nil, io.EOF)
	}
	return s.err
}
