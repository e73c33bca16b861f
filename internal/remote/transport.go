package remote

import (
	"bytes"
	"net"
	"time"
)

// Transport carries one session's frames. Server.AttestTo runs the
// device side of a device-initiated session over any Transport;
// Server.Conn and Server.Direct build the two the repository uses.
type Transport interface {
	// Send delivers one frame to the peer.
	Send(typ byte, payload []byte) error
	// Recv returns the peer's next frame.
	Recv() (typ byte, payload []byte, err error)
}

// connTransport frames messages over a net.Conn: length-prefixed,
// bounded by max, each Send and Recv under its own I/O deadline
// (timeout 0 = no deadline; the caller bounds the I/O).
type connTransport struct {
	conn    net.Conn
	max     int
	timeout time.Duration
}

// Send implements Transport.
func (t connTransport) Send(typ byte, payload []byte) error {
	return withDeadline(t.conn, t.timeout, func() error {
		return writeFrame(t.conn, t.max, typ, payload)
	})
}

// Recv implements Transport.
func (t connTransport) Recv() (typ byte, payload []byte, err error) {
	err = withDeadline(t.conn, t.timeout, func() error {
		var rerr error
		typ, payload, rerr = readFrame(t.conn, t.max)
		return rerr
	})
	return typ, payload, err
}

// wire is one direction of the in-process link: frames are written in
// their wire form under the sender's limit and read back under the
// receiver's, so the in-process path runs the same framing and limits
// as a socket.
type wire struct {
	buf     bytes.Buffer
	sendMax int
	recvMax int
}

// Send implements Transport.
func (w *wire) Send(typ byte, payload []byte) error {
	return writeFrame(&w.buf, w.sendMax, typ, payload)
}

// Recv implements Transport. An empty wire reads as io.EOF: the peer
// closed the session without a reply.
func (w *wire) Recv() (byte, []byte, error) {
	return readFrame(&w.buf, w.recvMax)
}

// direct is the in-process transport between a device's Server and a
// verifier session: each device frame is stepped through the session
// in the device's own goroutine, and the session's reply waits on the
// down wire for the device's next Recv. There is no second goroutine,
// pipe or timer.
type direct struct {
	v        *VerifierSession
	up, down wire
}

// Send implements Transport.
func (d *direct) Send(typ byte, payload []byte) error {
	if err := d.up.Send(typ, payload); err != nil {
		return err
	}
	typ, payload, err := d.up.Recv()
	d.v.deliver(&d.down, typ, payload, err)
	return nil
}

// Recv implements Transport.
func (d *direct) Recv() (byte, []byte, error) { return d.down.Recv() }
