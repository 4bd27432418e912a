// Package packet implements from-scratch encoding and decoding of the
// Ethernet, IPv4, TCP, and UDP headers that the load balancer dataplane,
// the trace/pcap writer, and the connection tracker operate on.
//
// The design follows the gopacket idiom — fixed header structs with
// DecodeFromBytes and SerializeTo methods — but uses only the standard
// library and avoids allocation on the decode path: decoding fills
// caller-owned structs, and header fields reference no backing storage.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Protocol numbers used in the IPv4 header.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Common header lengths in bytes.
const (
	EthernetHeaderLen = 14
	IPv4MinHeaderLen  = 20
	TCPMinHeaderLen   = 20
	UDPHeaderLen      = 8
)

// EtherType values.
const (
	EtherTypeIPv4 = 0x0800
)

var (
	// ErrTruncated reports a buffer too short for the header being decoded.
	ErrTruncated = errors.New("packet: truncated")
	// ErrBadVersion reports a non-IPv4 packet where IPv4 was expected.
	ErrBadVersion = errors.New("packet: bad IP version")
	// ErrBadHeaderLen reports an IHL/data-offset field outside legal bounds.
	ErrBadHeaderLen = errors.New("packet: bad header length")
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the address in canonical colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Ethernet is a DIX Ethernet II header.
type Ethernet struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
}

// DecodeFromBytes parses the header from b and returns the payload slice.
func (e *Ethernet) DecodeFromBytes(b []byte) ([]byte, error) {
	if len(b) < EthernetHeaderLen {
		return nil, fmt.Errorf("%w: ethernet header needs %d bytes, have %d", ErrTruncated, EthernetHeaderLen, len(b))
	}
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	e.EtherType = binary.BigEndian.Uint16(b[12:14])
	return b[EthernetHeaderLen:], nil
}

// SerializeTo writes the header into b, which must hold EthernetHeaderLen
// bytes, and returns the number of bytes written.
func (e *Ethernet) SerializeTo(b []byte) (int, error) {
	if len(b) < EthernetHeaderLen {
		return 0, fmt.Errorf("%w: ethernet serialize needs %d bytes, have %d", ErrTruncated, EthernetHeaderLen, len(b))
	}
	copy(b[0:6], e.Dst[:])
	copy(b[6:12], e.Src[:])
	binary.BigEndian.PutUint16(b[12:14], e.EtherType)
	return EthernetHeaderLen, nil
}

// IPv4 is an IPv4 header without options beyond what IHL describes.
type IPv4 struct {
	IHL      uint8 // header length in 32-bit words; 5 when no options
	TOS      uint8
	Length   uint16 // total length including header
	ID       uint16
	Flags    uint8  // 3 bits
	FragOff  uint16 // 13 bits
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src      [4]byte
	Dst      [4]byte
}

// HeaderLen returns the header length in bytes.
func (ip *IPv4) HeaderLen() int { return int(ip.IHL) * 4 }

// SrcAddr returns the source address as a netip.Addr.
func (ip *IPv4) SrcAddr() netip.Addr { return netip.AddrFrom4(ip.Src) }

// DstAddr returns the destination address as a netip.Addr.
func (ip *IPv4) DstAddr() netip.Addr { return netip.AddrFrom4(ip.Dst) }

// DecodeFromBytes parses the header from b and returns the payload slice
// (bounded by the Length field when it is consistent with the buffer).
func (ip *IPv4) DecodeFromBytes(b []byte) ([]byte, error) {
	if len(b) < IPv4MinHeaderLen {
		return nil, fmt.Errorf("%w: ipv4 header needs %d bytes, have %d", ErrTruncated, IPv4MinHeaderLen, len(b))
	}
	if v := b[0] >> 4; v != 4 {
		return nil, fmt.Errorf("%w: version %d", ErrBadVersion, v)
	}
	ip.IHL = b[0] & 0x0f
	hl := ip.HeaderLen()
	if hl < IPv4MinHeaderLen {
		return nil, fmt.Errorf("%w: IHL %d", ErrBadHeaderLen, ip.IHL)
	}
	if len(b) < hl {
		return nil, fmt.Errorf("%w: ipv4 options", ErrTruncated)
	}
	ip.TOS = b[1]
	ip.Length = binary.BigEndian.Uint16(b[2:4])
	ip.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = b[8]
	ip.Protocol = b[9]
	ip.Checksum = binary.BigEndian.Uint16(b[10:12])
	copy(ip.Src[:], b[12:16])
	copy(ip.Dst[:], b[16:20])
	end := int(ip.Length)
	if end < hl || end > len(b) {
		end = len(b)
	}
	return b[hl:end], nil
}

// SerializeTo writes the header into b with a freshly computed checksum and
// returns the number of bytes written. The caller must have set Length.
func (ip *IPv4) SerializeTo(b []byte) (int, error) {
	if ip.IHL == 0 {
		ip.IHL = 5
	}
	hl := ip.HeaderLen()
	if hl < IPv4MinHeaderLen {
		return 0, fmt.Errorf("%w: IHL %d", ErrBadHeaderLen, ip.IHL)
	}
	if len(b) < hl {
		return 0, fmt.Errorf("%w: ipv4 serialize needs %d bytes, have %d", ErrTruncated, hl, len(b))
	}
	b[0] = 4<<4 | ip.IHL
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:4], ip.Length)
	binary.BigEndian.PutUint16(b[4:6], ip.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	b[8] = ip.TTL
	b[9] = ip.Protocol
	b[10], b[11] = 0, 0
	copy(b[12:16], ip.Src[:])
	copy(b[16:20], ip.Dst[:])
	for i := IPv4MinHeaderLen; i < hl; i++ {
		b[i] = 0 // options are not generated
	}
	ip.Checksum = Checksum(b[:hl])
	binary.BigEndian.PutUint16(b[10:12], ip.Checksum)
	return hl, nil
}

// VerifyChecksum reports whether the header bytes carry a valid checksum.
func (ip *IPv4) VerifyChecksum(hdr []byte) bool {
	if len(hdr) < ip.HeaderLen() {
		return false
	}
	return Checksum(hdr[:ip.HeaderLen()]) == 0
}

// TCP flag bits.
const (
	FlagFIN = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// TCP is a TCP header. Options are preserved as raw bytes on decode and are
// not regenerated on serialize (DataOffset is honored, padding zeroed).
type TCP struct {
	SrcPort    uint16
	DstPort    uint16
	Seq        uint32
	Ack        uint32
	DataOffset uint8 // header length in 32-bit words
	Flags      uint8
	Window     uint16
	Checksum   uint16
	Urgent     uint16
}

// HeaderLen returns the header length in bytes.
func (t *TCP) HeaderLen() int { return int(t.DataOffset) * 4 }

// HasFlag reports whether all bits in mask are set.
func (t *TCP) HasFlag(mask uint8) bool { return t.Flags&mask == mask }

// DecodeFromBytes parses the header from b and returns the payload slice.
func (t *TCP) DecodeFromBytes(b []byte) ([]byte, error) {
	if len(b) < TCPMinHeaderLen {
		return nil, fmt.Errorf("%w: tcp header needs %d bytes, have %d", ErrTruncated, TCPMinHeaderLen, len(b))
	}
	t.SrcPort = binary.BigEndian.Uint16(b[0:2])
	t.DstPort = binary.BigEndian.Uint16(b[2:4])
	t.Seq = binary.BigEndian.Uint32(b[4:8])
	t.Ack = binary.BigEndian.Uint32(b[8:12])
	t.DataOffset = b[12] >> 4
	hl := t.HeaderLen()
	if hl < TCPMinHeaderLen {
		return nil, fmt.Errorf("%w: data offset %d", ErrBadHeaderLen, t.DataOffset)
	}
	if len(b) < hl {
		return nil, fmt.Errorf("%w: tcp options", ErrTruncated)
	}
	t.Flags = b[13]
	t.Window = binary.BigEndian.Uint16(b[14:16])
	t.Checksum = binary.BigEndian.Uint16(b[16:18])
	t.Urgent = binary.BigEndian.Uint16(b[18:20])
	return b[hl:], nil
}

// SerializeTo writes the header into b and returns the bytes written.
// The checksum field is written as currently set; use ChecksumTCP to compute
// it over the pseudo-header and payload first.
func (t *TCP) SerializeTo(b []byte) (int, error) {
	if t.DataOffset == 0 {
		t.DataOffset = 5
	}
	hl := t.HeaderLen()
	if hl < TCPMinHeaderLen {
		return 0, fmt.Errorf("%w: data offset %d", ErrBadHeaderLen, t.DataOffset)
	}
	if len(b) < hl {
		return 0, fmt.Errorf("%w: tcp serialize needs %d bytes, have %d", ErrTruncated, hl, len(b))
	}
	binary.BigEndian.PutUint16(b[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], t.DstPort)
	binary.BigEndian.PutUint32(b[4:8], t.Seq)
	binary.BigEndian.PutUint32(b[8:12], t.Ack)
	b[12] = t.DataOffset << 4
	b[13] = t.Flags
	binary.BigEndian.PutUint16(b[14:16], t.Window)
	binary.BigEndian.PutUint16(b[16:18], t.Checksum)
	binary.BigEndian.PutUint16(b[18:20], t.Urgent)
	for i := TCPMinHeaderLen; i < hl; i++ {
		b[i] = 0
	}
	return hl, nil
}

// UDP is a UDP header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

// DecodeFromBytes parses the header from b and returns the payload slice.
func (u *UDP) DecodeFromBytes(b []byte) ([]byte, error) {
	if len(b) < UDPHeaderLen {
		return nil, fmt.Errorf("%w: udp header needs %d bytes, have %d", ErrTruncated, UDPHeaderLen, len(b))
	}
	u.SrcPort = binary.BigEndian.Uint16(b[0:2])
	u.DstPort = binary.BigEndian.Uint16(b[2:4])
	u.Length = binary.BigEndian.Uint16(b[4:6])
	u.Checksum = binary.BigEndian.Uint16(b[6:8])
	return b[UDPHeaderLen:], nil
}

// SerializeTo writes the header into b and returns the bytes written.
func (u *UDP) SerializeTo(b []byte) (int, error) {
	if len(b) < UDPHeaderLen {
		return 0, fmt.Errorf("%w: udp serialize needs %d bytes, have %d", ErrTruncated, UDPHeaderLen, len(b))
	}
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	binary.BigEndian.PutUint16(b[4:6], u.Length)
	binary.BigEndian.PutUint16(b[6:8], u.Checksum)
	return UDPHeaderLen, nil
}

// Checksum computes the RFC 1071 Internet checksum of b.
func Checksum(b []byte) uint16 {
	return finishChecksum(sum16(b, 0))
}

// ChecksumTCP computes the TCP checksum over the IPv4 pseudo-header, the
// serialized TCP header (with its checksum field zeroed), and the payload.
func ChecksumTCP(src, dst [4]byte, hdr, payload []byte) uint16 {
	return checksumTransport(src, dst, ProtoTCP, hdr, payload)
}

func checksumTransport(src, dst [4]byte, proto uint8, hdr, payload []byte) uint16 {
	var pseudo [12]byte
	copy(pseudo[0:4], src[:])
	copy(pseudo[4:8], dst[:])
	pseudo[9] = proto
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(hdr)+len(payload)))
	s := sum16(pseudo[:], 0)
	s = sum16(hdr, s)
	s = sum16(payload, s)
	return finishChecksum(s)
}

// sum16 accumulates 16-bit big-endian words of b into sum, handling an odd
// trailing byte per RFC 1071.
func sum16(b []byte, sum uint32) uint32 {
	n := len(b)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if n%2 == 1 {
		sum += uint32(b[n-1]) << 8
	}
	return sum
}

func finishChecksum(sum uint32) uint16 {
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
