package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/trusted"
)

// frame builds a wire frame with an arbitrary declared length (not
// necessarily matching the body) for boundary seeds.
func frame(declared uint32, body []byte) []byte {
	out := make([]byte, 4+len(body))
	binary.LittleEndian.PutUint32(out, declared)
	copy(out[4:], body)
	return out
}

func FuzzReadFrame(f *testing.F) {
	// Well-formed small frame.
	f.Add(frame(5, append([]byte{MsgChallenge}, "abcd"...)))
	// Zero-length frame (rejected).
	f.Add(frame(0, nil))
	// Exactly DefaultMaxFrame: the largest legal frame.
	f.Add(frame(DefaultMaxFrame, append([]byte{MsgQuote}, make([]byte, DefaultMaxFrame-1)...)))
	// One past the boundary: declared DefaultMaxFrame+1 (rejected before read).
	f.Add(frame(DefaultMaxFrame+1, make([]byte, DefaultMaxFrame+1)))
	// Declared huge, body tiny (must not allocate per the prefix and
	// must not hang).
	f.Add(frame(0xFFFFFFFF, []byte{1, 2, 3}))
	// Truncated header and truncated body.
	f.Add([]byte{5, 0})
	f.Add(frame(10, []byte{MsgError, 'x'}))

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data), DefaultMaxFrame)
		if err != nil {
			return
		}
		// Invariants of an accepted frame: within bounds and
		// reconstructible.
		if len(payload)+1 > DefaultMaxFrame {
			t.Fatalf("accepted frame of %d bytes (> DefaultMaxFrame)", len(payload)+1)
		}
		var buf bytes.Buffer
		if werr := writeFrame(&buf, DefaultMaxFrame, typ, payload); werr != nil {
			t.Fatalf("accepted frame cannot be re-written: %v", werr)
		}
		typ2, payload2, rerr := readFrame(&buf, DefaultMaxFrame)
		if rerr != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatal("frame round-trip mismatch")
		}
	})
}

func FuzzUnmarshalChallenge(f *testing.F) {
	// Valid challenge.
	if b, err := marshalChallenge(Challenge{Provider: "oem", TruncID: 1, Nonce: 2}); err == nil {
		f.Add(b)
	}
	// Empty provider.
	if b, err := marshalChallenge(Challenge{}); err == nil {
		f.Add(b)
	}
	// Maximum provider length.
	if b, err := marshalChallenge(Challenge{Provider: string(make([]byte, 255))}); err == nil {
		f.Add(b)
	}
	// Length byte promising more than the buffer holds.
	f.Add([]byte{255, 'a', 'b'})
	// Truncated trailers.
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := unmarshalChallenge(data)
		if err != nil {
			return
		}
		b, merr := marshalChallenge(c)
		if merr != nil {
			t.Fatalf("accepted challenge cannot be re-marshaled: %v", merr)
		}
		if !bytes.Equal(b, data) {
			t.Fatalf("challenge round-trip mismatch: %x != %x", b, data)
		}
	})
}

func FuzzUnmarshalHello(f *testing.F) {
	// Valid hello.
	if b, err := marshalHello(Hello{Device: "dev-1", Provider: "oem", TruncID: 7, Session: 3}); err == nil {
		f.Add(b)
	}
	// A trailer that is exactly one session-ordinal short — the
	// pre-session wire form, which the current decoder must reject.
	if b, err := marshalHello(Hello{Device: "dev-1", Provider: "oem", TruncID: 7}); err == nil {
		f.Add(b[:len(b)-8])
	}
	// Empty fields.
	if b, err := marshalHello(Hello{}); err == nil {
		f.Add(b)
	}
	// Maximum field lengths.
	if b, err := marshalHello(Hello{Device: string(make([]byte, 255)), Provider: string(make([]byte, 255))}); err == nil {
		f.Add(b)
	}
	// Length bytes promising more than the buffer holds.
	f.Add([]byte{255, 'a'})
	f.Add([]byte{1, 'a', 255, 'b'})
	// Truncated trailer.
	f.Add([]byte{0, 0, 1, 2, 3})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := unmarshalHello(data)
		if err != nil {
			return
		}
		b, merr := marshalHello(h)
		if merr != nil {
			t.Fatalf("accepted hello cannot be re-marshaled: %v", merr)
		}
		if !bytes.Equal(b, data) {
			t.Fatalf("hello round-trip mismatch: %x != %x", b, data)
		}
	})
}

// sessionPolicy admits every "oem" hello with nonce 42 and refuses any
// other provider. Its Decide passes everything — an adversarial policy,
// so the fuzzer checks that the state machine alone keeps unverified
// quotes from passing.
type sessionPolicy struct{}

func (sessionPolicy) Admit(h Hello) (uint64, string) {
	if h.Provider != "oem" {
		return 0, "unknown provider"
	}
	return 42, ""
}

func (sessionPolicy) Decide(Hello, trusted.Quote, error) (bool, string) { return true, "" }

// wireFrames encodes frames back to back in their wire form.
func wireFrames(frames ...reply) []byte {
	var buf bytes.Buffer
	for _, f := range frames {
		writeFrame(&buf, DefaultMaxFrame, f.typ, f.payload)
	}
	return buf.Bytes()
}

// FuzzPlaneSession feeds an arbitrary device frame sequence (frames
// back to back in wire form; a malformed tail is a link failure) into
// the verifier session state machine. Every sequence must close the
// session with a verdict, a refusal or a typed error, and a pass
// verdict requires a quote whose MAC verifies under the nonce the
// session's own challenge issued.
func FuzzPlaneSession(f *testing.F) {
	p, e := devicePlatform(f)
	c := oemClient(p, ClientOptions{})
	ver := p.Provider("oem").Verifier()
	att := ComponentsAttestor{C: p.C}
	hello, _ := marshalHello(Hello{Device: "dev-0", Provider: "oem", TruncID: e.ID.TruncatedID()})
	good, err := att.QuoteByTruncID("oem", e.ID.TruncatedID(), 42)
	if err != nil {
		f.Fatal(err)
	}
	stale, _ := att.QuoteByTruncID("oem", e.ID.TruncatedID(), 41)
	forged := good
	forged.MAC[0] ^= 1
	evil, _ := marshalHello(Hello{Device: "dev-0", Provider: "evil"})

	f.Add(wireFrames(reply{MsgHello, hello}, reply{MsgQuote, good.Marshal()}))
	f.Add(wireFrames(reply{MsgHello, hello}, reply{MsgQuote, forged.Marshal()}))
	f.Add(wireFrames(reply{MsgHello, hello}, reply{MsgQuote, stale.Marshal()}))
	f.Add(wireFrames(reply{MsgHello, hello}, reply{MsgError, []byte("unknown identity")}))
	f.Add(wireFrames(reply{MsgHello, hello}, reply{MsgHello, hello}))
	f.Add(wireFrames(reply{MsgHello, hello}))
	f.Add(wireFrames(reply{MsgHello, evil}, reply{MsgQuote, good.Marshal()}))
	f.Add(wireFrames(reply{MsgQuote, good.Marshal()}))
	f.Add(append(wireFrames(reply{MsgHello, hello}), 0xff, 0xff, 0xff, 0xff))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := c.NewSession(sessionPolicy{})
		r := bytes.NewReader(data)
		var last reply
		var issued uint64
		var quote []byte
		for steps := 0; s.state != closed; steps++ {
			if steps > 2 {
				t.Fatal("session still open after hello and quote")
			}
			typ, payload, rerr := readFrame(r, DefaultMaxFrame)
			if s.state == awaitQuote && rerr == nil && typ == MsgQuote {
				quote = payload
			}
			rep := s.step(typ, payload, rerr)
			if rep.typ == MsgChallenge {
				ch, err := unmarshalChallenge(rep.payload)
				if err != nil {
					t.Fatalf("session issued a malformed challenge: %v", err)
				}
				issued = ch.Nonce
			}
			if rep.typ != 0 {
				last = rep
			}
		}
		err := s.Close()
		if err != nil && !isTyped(err) {
			t.Fatalf("session ended in an untyped error: %v", err)
		}
		if err == nil && last.typ != MsgVerdict && last.typ != MsgError {
			t.Fatalf("session closed without a verdict, refusal or error (last reply %d)", last.typ)
		}
		if last.typ != MsgVerdict || len(last.payload) == 0 || last.payload[0] != 1 {
			return
		}
		if quote == nil {
			t.Fatal("pass verdict without a quote")
		}
		q, qerr := trusted.UnmarshalQuote(quote)
		if qerr != nil {
			t.Fatalf("pass verdict on an undecodable quote: %v", qerr)
		}
		if verr := ver.VerifyMAC(q, issued); verr != nil {
			t.Fatalf("pass verdict on a quote that fails MAC under nonce %d: %v", issued, verr)
		}
	})
}

// isTyped reports whether a session error is one of the protocol's
// typed failures.
func isTyped(err error) bool {
	for _, want := range []error{ErrBadMessage, ErrRemote, ErrFrameTooLarge,
		trusted.ErrQuoteInvalid, io.EOF, io.ErrUnexpectedEOF} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}
