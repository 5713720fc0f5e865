package faultconn

import (
	"fmt"
	"net"

	"netchain/internal/packet"
)

// PacketConn wraps a *net.UDPConn with a Pipe so plain single-datagram
// read/write loops get the same fault treatment the batched transport
// gets via BatchConn.SetFaults. It implements net.PacketConn; injected
// (faulty) writes report full length, as a kernel that then lost the
// datagram would.
type PacketConn struct {
	*net.UDPConn
	pipe *Pipe
}

// WrapPacketConn binds conn to the injector as the node with virtual
// address self.
func (i *Injector) WrapPacketConn(self packet.Addr, conn *net.UDPConn) *PacketConn {
	return &PacketConn{UDPConn: conn, pipe: i.Pipe(self)}
}

// ReadFromUDP reads the next datagram that survives ingress injection.
func (c *PacketConn) ReadFromUDP(b []byte) (int, *net.UDPAddr, error) {
	for {
		n, ep, err := c.UDPConn.ReadFromUDP(b)
		if err != nil {
			return n, ep, err
		}
		if c.pipe.Ingress(b[:n]) {
			return n, ep, nil
		}
	}
}

// ReadFrom implements net.PacketConn over ReadFromUDP.
func (c *PacketConn) ReadFrom(b []byte) (int, net.Addr, error) {
	n, ep, err := c.ReadFromUDP(b)
	if ep == nil {
		return n, nil, err
	}
	return n, ep, err
}

// WriteToUDP sends b toward ep through egress injection.
func (c *PacketConn) WriteToUDP(b []byte, ep *net.UDPAddr) (int, error) {
	if !c.pipe.Egress(b, ep, c.raw) {
		return len(b), nil // consumed: dropped, or re-injected later
	}
	return c.UDPConn.WriteToUDP(b, ep)
}

// WriteTo implements net.PacketConn over WriteToUDP.
func (c *PacketConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	ep, ok := addr.(*net.UDPAddr)
	if !ok {
		return 0, fmt.Errorf("faultconn: non-UDP address %v", addr)
	}
	return c.WriteToUDP(b, ep)
}

func (c *PacketConn) raw(b []byte, ep *net.UDPAddr) { _, _ = c.UDPConn.WriteToUDP(b, ep) }
