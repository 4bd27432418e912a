package packet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
)

// FlowKey identifies a transport connection by its 5-tuple. It is a
// fixed-size comparable value so it can serve directly as a map key in the
// connection tracker and as input to the Maglev hash.
type FlowKey struct {
	SrcIP   [4]byte
	DstIP   [4]byte
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// NewFlowKey builds a FlowKey from addresses and ports.
func NewFlowKey(src, dst netip.Addr, srcPort, dstPort uint16, proto uint8) FlowKey {
	return FlowKey{
		SrcIP:   src.As4(),
		DstIP:   dst.As4(),
		SrcPort: srcPort,
		DstPort: dstPort,
		Proto:   proto,
	}
}

// Reverse returns the key of the opposite direction of the same connection.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{
		SrcIP:   k.DstIP,
		DstIP:   k.SrcIP,
		SrcPort: k.DstPort,
		DstPort: k.SrcPort,
		Proto:   k.Proto,
	}
}

// Less orders flow keys field by field. Flow tables that evict the longest
// idle flow break ties with it, so which flow goes does not depend on map
// iteration order and a simulation replays from its seed.
func (k FlowKey) Less(o FlowKey) bool {
	if k.SrcIP != o.SrcIP {
		return bytes.Compare(k.SrcIP[:], o.SrcIP[:]) < 0
	}
	if k.DstIP != o.DstIP {
		return bytes.Compare(k.DstIP[:], o.DstIP[:]) < 0
	}
	if k.SrcPort != o.SrcPort {
		return k.SrcPort < o.SrcPort
	}
	if k.DstPort != o.DstPort {
		return k.DstPort < o.DstPort
	}
	return k.Proto < o.Proto
}

// String renders "proto src:port->dst:port".
func (k FlowKey) String() string {
	return fmt.Sprintf("%d %s:%d->%s:%d", k.Proto,
		netip.AddrFrom4(k.SrcIP), k.SrcPort, netip.AddrFrom4(k.DstIP), k.DstPort)
}

// Hash returns a 64-bit hash of the key using the FNV-1a construction over
// the 13 bytes SrcIP‖DstIP‖SrcPort(be)‖DstPort(be)‖Proto, fully unrolled:
// no staging buffer, no loop, just the thirteen xor-multiply steps. The
// digest is identical to hashing that byte string with hash/fnv (a test
// pins this) and must never change — Maglev slot assignments, flow-shard
// placement, and the golden experiment metrics are all functions of it.
func (k FlowKey) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(k.SrcIP[0])) * prime64
	h = (h ^ uint64(k.SrcIP[1])) * prime64
	h = (h ^ uint64(k.SrcIP[2])) * prime64
	h = (h ^ uint64(k.SrcIP[3])) * prime64
	h = (h ^ uint64(k.DstIP[0])) * prime64
	h = (h ^ uint64(k.DstIP[1])) * prime64
	h = (h ^ uint64(k.DstIP[2])) * prime64
	h = (h ^ uint64(k.DstIP[3])) * prime64
	h = (h ^ uint64(k.SrcPort>>8)) * prime64
	h = (h ^ uint64(k.SrcPort&0xff)) * prime64
	h = (h ^ uint64(k.DstPort>>8)) * prime64
	h = (h ^ uint64(k.DstPort&0xff)) * prime64
	h = (h ^ uint64(k.Proto)) * prime64
	return h
}

// SymmetricHash returns a direction-independent hash: both directions of a
// connection map to the same value (useful for splitting packet streams
// across workers while keeping connections together).
func (k FlowKey) SymmetricHash() uint64 {
	r := k.Reverse()
	a, b := k.Hash(), r.Hash()
	if a < b {
		return a*31 + b
	}
	return b*31 + a
}

// DecodeFlowKey parses an Ethernet/IPv4/TCP-or-UDP frame and extracts its
// FlowKey, returning the transport payload as well. It is the fast path the
// dataplane uses per packet.
func DecodeFlowKey(frame []byte) (FlowKey, []byte, error) {
	var eth Ethernet
	rest, err := eth.DecodeFromBytes(frame)
	if err != nil {
		return FlowKey{}, nil, err
	}
	if eth.EtherType != EtherTypeIPv4 {
		return FlowKey{}, nil, fmt.Errorf("%w: ethertype %#04x", ErrBadVersion, eth.EtherType)
	}
	var ip IPv4
	rest, err = ip.DecodeFromBytes(rest)
	if err != nil {
		return FlowKey{}, nil, err
	}
	key := FlowKey{SrcIP: ip.Src, DstIP: ip.Dst, Proto: ip.Protocol}
	switch ip.Protocol {
	case ProtoTCP:
		var tcp TCP
		payload, err := tcp.DecodeFromBytes(rest)
		if err != nil {
			return FlowKey{}, nil, err
		}
		key.SrcPort, key.DstPort = tcp.SrcPort, tcp.DstPort
		return key, payload, nil
	case ProtoUDP:
		var udp UDP
		payload, err := udp.DecodeFromBytes(rest)
		if err != nil {
			return FlowKey{}, nil, err
		}
		key.SrcPort, key.DstPort = udp.SrcPort, udp.DstPort
		return key, payload, nil
	default:
		return FlowKey{}, nil, fmt.Errorf("packet: unsupported protocol %d", ip.Protocol)
	}
}

// BuildTCPFrame assembles a complete Ethernet/IPv4/TCP frame with valid
// checksums. It is used by the pcap trace writer and by tests that need
// realistic wire bytes.
func BuildTCPFrame(srcMAC, dstMAC MAC, key FlowKey, seq, ack uint32, flags uint8, payload []byte) ([]byte, error) {
	if key.Proto != ProtoTCP {
		return nil, fmt.Errorf("packet: BuildTCPFrame requires proto %d, got %d", ProtoTCP, key.Proto)
	}
	total := EthernetHeaderLen + IPv4MinHeaderLen + TCPMinHeaderLen + len(payload)
	frame := make([]byte, total)

	eth := Ethernet{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4}
	n, err := eth.SerializeTo(frame)
	if err != nil {
		return nil, err
	}

	ip := IPv4{
		IHL:      5,
		Length:   uint16(IPv4MinHeaderLen + TCPMinHeaderLen + len(payload)),
		TTL:      64,
		Protocol: ProtoTCP,
		Src:      key.SrcIP,
		Dst:      key.DstIP,
	}
	ipStart := n
	m, err := ip.SerializeTo(frame[ipStart:])
	if err != nil {
		return nil, err
	}

	tcp := TCP{
		SrcPort:    key.SrcPort,
		DstPort:    key.DstPort,
		Seq:        seq,
		Ack:        ack,
		DataOffset: 5,
		Flags:      flags,
		Window:     65535,
	}
	tcpStart := ipStart + m
	if _, err := tcp.SerializeTo(frame[tcpStart:]); err != nil {
		return nil, err
	}
	copy(frame[tcpStart+TCPMinHeaderLen:], payload)

	hdr := frame[tcpStart : tcpStart+TCPMinHeaderLen]
	tcp.Checksum = ChecksumTCP(key.SrcIP, key.DstIP, hdr, payload)
	binary.BigEndian.PutUint16(hdr[16:18], tcp.Checksum)
	return frame, nil
}
