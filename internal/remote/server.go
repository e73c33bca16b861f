package remote

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// ServerOptions parameterizes the device side of the protocol. The zero
// value is ready: default deadline, default error budget, default frame
// limit, no stats.
type ServerOptions struct {
	// Timeout bounds each exchange's I/O, and each frame's I/O on a
	// Conn transport (0 = DefaultIOTimeout).
	Timeout time.Duration
	// ErrorBudget is how many protocol errors (malformed frames, bad
	// challenges) one persistent connection may produce before it is
	// dropped (0 = 3).
	ErrorBudget int
	// MaxFrame bounds frame sizes in both directions, type byte
	// included (0 = DefaultMaxFrame). Oversize frames are rejected with
	// ErrFrameTooLarge.
	MaxFrame int
	// Stats, when non-nil, accumulates exchange/error accounting.
	Stats *ServeStats
	// Obs, when non-nil, receives the device-side session-lifecycle
	// events (SubRemote / KindSession) for device-initiated sessions:
	// one phase=hello event when AttestTo opens the session and one
	// closing event (phase=verdict/refused/error) stamped with the
	// device-cycle end-to-end latency. Both carry the session ordinal
	// from the Hello, forming the correlation key the fleet plane
	// echoes. Nil costs one pointer check per session.
	Obs trace.Sink
	// Cycles supplies the simulated cycle counter for Obs timestamps
	// (nil stamps zero). Reading the counter never advances it, so
	// observation keeps the zero-impact contract.
	Cycles func() uint64
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.Timeout == 0 {
		o.Timeout = DefaultIOTimeout
	}
	if o.ErrorBudget == 0 {
		o.ErrorBudget = 3
	}
	if o.MaxFrame == 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	return o
}

// Server is the device side of the wire protocol: it owns an Attestor
// and answers verifier challenges, or initiates sessions toward a
// verifier plane with AttestTo. Safe for concurrent use across
// connections.
type Server struct {
	att Attestor
	opt ServerOptions
}

// NewServer builds a device-side server around att.
func NewServer(att Attestor, opt ServerOptions) *Server {
	return &Server{att: att, opt: opt.withDefaults()}
}

// Options returns the server's resolved options (defaults applied).
func (s *Server) Options() ServerOptions { return s.opt }

// ServeOne handles a single challenge/response exchange on conn under
// the server's I/O deadline.
func (s *Server) ServeOne(conn net.Conn) error {
	return withDeadline(conn, s.opt.Timeout, func() error {
		return s.serveExchange(connTransport{conn: conn, max: s.opt.MaxFrame})
	})
}

// serveExchange is one challenge/response exchange on t.
func (s *Server) serveExchange(t Transport) error {
	typ, payload, err := t.Recv()
	if err != nil {
		return err
	}
	if typ != MsgChallenge {
		t.Send(MsgError, []byte("expected challenge"))
		return fmt.Errorf("%w: type %d", ErrBadMessage, typ)
	}
	ch, err := unmarshalChallenge(payload)
	if err != nil {
		t.Send(MsgError, []byte("bad challenge"))
		return err
	}
	return s.answer(t, ch)
}

// answer quotes the challenged task and sends the reply frame.
func (s *Server) answer(t Transport, ch Challenge) error {
	q, err := s.att.QuoteByTruncID(ch.Provider, ch.TruncID, ch.Nonce)
	if err != nil {
		t.Send(MsgError, []byte(err.Error()))
		return nil // the protocol handled it; not a server failure
	}
	return t.Send(MsgQuote, q.Marshal())
}

// ServeConn answers challenges on a persistent connection until the
// peer closes it, an exchange times out, a transport error occurs, or
// the connection exhausts its protocol-error budget. It returns nil on
// clean shutdown (EOF).
func (s *Server) ServeConn(conn net.Conn) error {
	protoErrs := 0
	for {
		err := s.ServeOne(conn)
		switch {
		case err == nil:
			if s.opt.Stats != nil {
				atomic.AddUint64(&s.opt.Stats.exchanges, 1)
			}
			continue
		case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
			return nil
		case errors.Is(err, ErrTimeout):
			if s.opt.Stats != nil {
				atomic.AddUint64(&s.opt.Stats.timeouts, 1)
			}
			return err
		case errors.Is(err, ErrBadMessage), errors.Is(err, ErrFrameTooLarge):
			protoErrs++
			if s.opt.Stats != nil {
				atomic.AddUint64(&s.opt.Stats.frameErrors, 1)
			}
			if protoErrs >= s.opt.ErrorBudget {
				if s.opt.Stats != nil {
					atomic.AddUint64(&s.opt.Stats.drops, 1)
				}
				return fmt.Errorf("%w: %d protocol errors", ErrErrorBudget, protoErrs)
			}
		default:
			return err
		}
	}
}

// Serve accepts connections on l and answers one challenge per
// connection until Accept fails (listener closed). A misbehaving
// connection — malformed frames, stalls past the deadline — is dropped
// and serving continues; one bad peer cannot take the attestation
// service down for everyone else.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.ServeOne(conn)
		conn.Close()
	}
}

// Conn returns a transport that frames this server's messages over
// conn under its MaxFrame, bounding each frame's I/O by its Timeout —
// the transport AttestTo takes for a verifier plane across a network.
func (s *Server) Conn(conn net.Conn) Transport {
	return connTransport{conn: conn, max: s.opt.MaxFrame, timeout: s.opt.Timeout}
}

// Direct returns the in-process transport to verifier session v: every
// frame AttestTo sends is encoded under this server's MaxFrame, decoded
// under the verifier's and stepped through v in the caller's goroutine,
// and v's reply comes back the same way. The caller closes v once
// AttestTo returns.
func (s *Server) Direct(v *VerifierSession) Transport {
	d := &direct{v: v}
	d.up.sendMax, d.up.recvMax = s.opt.MaxFrame, v.c.opt.MaxFrame
	d.down.sendMax, d.down.recvMax = v.c.opt.MaxFrame, s.opt.MaxFrame
	return d
}

// AttestTo runs a device-initiated session over t: send the hello,
// answer the verifier plane's challenge, and wait for its verdict. A
// plane that refuses the hello (MsgError) surfaces as ErrRefused; a
// failed appraisal (MsgVerdict fail) as ErrDenied — both wrapping the
// plane's reason. Waiting for the verdict keeps the session synchronous
// end to end: when AttestTo returns, the plane has recorded the
// outcome, so the device's next session sees its up-to-date standing.
func (s *Server) AttestTo(t Transport, h Hello) error {
	start := s.now()
	s.emitSession(h, start, trace.Str("phase", "hello"), trace.Str("provider", h.Provider))
	err := s.attest(t, h)
	end := s.now()
	switch {
	case err == nil:
		s.emitSession(h, end, trace.Str("phase", "verdict"),
			trace.Str("result", "pass"), trace.Num("e2e", end-start))
	case errors.Is(err, ErrDenied):
		s.emitSession(h, end, trace.Str("phase", "verdict"),
			trace.Str("result", "fail"), trace.Num("e2e", end-start))
	case errors.Is(err, ErrRefused):
		s.emitSession(h, end, trace.Str("phase", "refused"),
			trace.Num("e2e", end-start))
	default:
		s.emitSession(h, end, trace.Str("phase", "error"),
			trace.Num("e2e", end-start))
	}
	return err
}

// attest is AttestTo's exchange.
func (s *Server) attest(t Transport, h Hello) error {
	payload, err := marshalHello(h)
	if err != nil {
		return err
	}
	if err := t.Send(MsgHello, payload); err != nil {
		return err
	}
	typ, resp, err := t.Recv()
	if err != nil {
		return err
	}
	switch typ {
	case MsgChallenge:
		ch, err := unmarshalChallenge(resp)
		if err != nil {
			t.Send(MsgError, []byte("bad challenge"))
			return err
		}
		if err := s.answer(t, ch); err != nil {
			return err
		}
		return awaitVerdict(t)
	case MsgError:
		return fmt.Errorf("%w: %s", ErrRefused, resp)
	default:
		return fmt.Errorf("%w: type %d", ErrBadMessage, typ)
	}
}

// now samples the simulated cycle counter for session events (0 when
// the server has no cycle source).
func (s *Server) now() uint64 {
	if s.opt.Cycles == nil {
		return 0
	}
	return s.opt.Cycles()
}

// emitSession emits one session-lifecycle event when Obs is wired.
func (s *Server) emitSession(h Hello, cycle uint64, attrs ...trace.Attr) {
	if s.opt.Obs == nil {
		return
	}
	s.opt.Obs.Emit(trace.Event{
		Cycle:   cycle,
		Sub:     trace.SubRemote,
		Kind:    trace.KindSession,
		Subject: h.Device,
		Attrs:   append([]trace.Attr{trace.Num("session", h.Session)}, attrs...),
	})
}

// awaitVerdict reads the session-closing verdict frame.
func awaitVerdict(t Transport) error {
	typ, v, err := t.Recv()
	if err != nil {
		return err
	}
	if typ != MsgVerdict || len(v) < 1 {
		return fmt.Errorf("%w: expected verdict, got type %d", ErrBadMessage, typ)
	}
	if v[0] == 1 {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrDenied, v[1:])
}
