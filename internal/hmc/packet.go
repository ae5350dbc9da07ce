package hmc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// FlitBytes is the size of one flit, the 16-byte unit packets are
// partitioned into on HMC links.
const FlitBytes = 16

// OverheadBytes is the per-packet protocol overhead: an 8-byte header
// plus an 8-byte tail, i.e. exactly one flit per request/response.
const OverheadBytes = 16

// MaxPayloadBytes and MinPayloadBytes bound the architected data
// payload range: 1 to 8 flits (16 B to 128 B).
const (
	MinPayloadBytes = 16
	MaxPayloadBytes = 128
)

// PayloadSizes lists every architected request data size, the sweep
// used by the Figure 13 experiments (footnote 11).
func PayloadSizes() []int { return []int{16, 32, 48, 64, 80, 96, 112, 128} }

// Command is the packet command encoding. Only the transaction
// commands exercised by the paper's GUPS workloads are modelled.
type Command uint8

const (
	// CmdRead requests a data payload; the request is header+tail only.
	CmdRead Command = iota
	// CmdWrite carries a data payload; the response is header+tail only.
	CmdWrite
	// CmdResponse is a transaction response (read data or write ack).
	CmdResponse
	// CmdError is a response flagging an error condition; the device
	// uses response head/tail bits to signal imminent thermal shutdown
	// (Section IV-C).
	CmdError
)

func (c Command) String() string {
	switch c {
	case CmdRead:
		return "READ"
	case CmdWrite:
		return "WRITE"
	case CmdResponse:
		return "RESP"
	case CmdError:
		return "ERROR"
	default:
		return fmt.Sprintf("Command(%d)", uint8(c))
	}
}

// ValidPayload reports whether size is an architected data payload
// size (a whole number of flits within 16..128 B).
func ValidPayload(size int) bool {
	return size >= MinPayloadBytes && size <= MaxPayloadBytes && size%FlitBytes == 0
}

// PayloadError is the panic value of a request whose payload size is
// not architected.
type PayloadError int

func (e PayloadError) Error() string {
	return fmt.Sprintf("hmc: invalid request size %d", int(e))
}

// CheckPayload panics with a PayloadError unless size is a valid
// payload. Every submission path (device links, vault-local PIM access,
// the host controller) calls it before it touches any state, so an
// invalid request fails at the call instead of inside a later event.
func CheckPayload(size int) {
	if !ValidPayload(size) {
		panic(PayloadError(size))
	}
}

// Flits returns the total size in flits of a packet carrying
// payloadBytes of data (0 for header+tail-only packets), per Table II:
// read request 1 flit, read response 2-9 flits, write request 2-9
// flits, write response 1 flit.
func Flits(payloadBytes int) int {
	return 1 + payloadBytes/FlitBytes
}

// PacketBytes returns the wire size in bytes of a packet with the
// given payload.
func PacketBytes(payloadBytes int) int { return OverheadBytes + payloadBytes }

// TransactionBytes returns the combined request+response wire traffic
// of one transaction of the given type and data size; this is the
// "raw bandwidth including header and tail" the paper reports.
func TransactionBytes(cmd Command, dataBytes int) int {
	switch cmd {
	case CmdRead:
		// 1-flit request + (1 + data) response.
		return OverheadBytes + PacketBytes(dataBytes)
	case CmdWrite:
		// (1 + data) request + 1-flit response.
		return PacketBytes(dataBytes) + OverheadBytes
	default:
		panic(fmt.Sprintf("hmc: TransactionBytes for non-transaction command %v", cmd))
	}
}

// EffectiveFraction returns data bytes as a fraction of total wire
// bytes for one direction's data-bearing packet: 128 B payloads reach
// 128/(128+16) = 89 %, 16 B payloads only 50 % (Section IV-D).
func EffectiveFraction(dataBytes int) float64 {
	return float64(dataBytes) / float64(PacketBytes(dataBytes))
}

// crcTable is the CRC-32K (Koopman) polynomial table; the HMC packet
// tail carries a CRC-32 computed with the Koopman polynomial.
var crcTable = crc32.MakeTable(crc32.Koopman)

// Packet is the byte-level representation of one HMC link packet.
// The timing model usually works with flit counts alone; the byte
// level exists for the protocol tests and the stream-GUPS data
// integrity checks (Section III-B).
type Packet struct {
	Cmd     Command
	Tag     uint16 // transaction tag, echoed in the response
	Addr    uint64 // 34-bit address field
	Seq     uint8  // 3-bit link sequence number
	ErrStat uint8  // error/status field in the tail (thermal alarm etc.)
	Data    []byte // payload; nil for header+tail-only packets
}

// packetHeaderLen and packetTailLen are the wire sizes of the fixed
// fields.
const (
	packetHeaderLen = 8
	packetTailLen   = 8
)

// WireBytes reports the encoded size of the packet.
func (p *Packet) WireBytes() int { return packetHeaderLen + len(p.Data) + packetTailLen }

// FlitCount reports the encoded size in flits.
func (p *Packet) FlitCount() int { return p.WireBytes() / FlitBytes }

// Encode serializes the packet: header (cmd, tag, 34-bit address,
// length), payload, tail (seq, errstat, CRC-32K over everything that
// precedes the CRC field).
func (p *Packet) Encode() ([]byte, error) {
	if len(p.Data) != 0 && !ValidPayload(len(p.Data)) {
		return nil, fmt.Errorf("hmc: invalid payload size %d", len(p.Data))
	}
	if p.Addr >= 1<<AddressBits {
		return nil, fmt.Errorf("hmc: address %#x exceeds %d bits", p.Addr, AddressBits)
	}
	buf := make([]byte, p.WireBytes())
	// Header: [0]=cmd, [1]=flit count, [2:4]=tag, [4:8]+low nibble of
	// [3] pack the 34-bit address (top 2 bits in the tag byte's spare
	// bits would be cleaner hardware-wise; here we use a plain 64-bit
	// field truncated to 34 bits split across 5 bytes).
	buf[0] = byte(p.Cmd)
	buf[1] = byte(p.FlitCount())
	binary.LittleEndian.PutUint16(buf[2:4], p.Tag)
	// 34-bit address into bytes 4..7 plus 2 bits of the flit-count
	// byte's high bits.
	binary.LittleEndian.PutUint32(buf[4:8], uint32(p.Addr))
	buf[1] |= byte(p.Addr>>32) << 6
	copy(buf[packetHeaderLen:], p.Data)
	tail := buf[len(buf)-packetTailLen:]
	tail[0] = p.Seq & 0x7
	tail[1] = p.ErrStat
	crc := crc32.Checksum(buf[:len(buf)-4], crcTable)
	binary.LittleEndian.PutUint32(tail[4:], crc)
	return buf, nil
}

// DecodePacket parses and verifies a wire packet, checking length
// consistency and the tail CRC.
func DecodePacket(wire []byte) (*Packet, error) {
	if len(wire) < packetHeaderLen+packetTailLen {
		return nil, fmt.Errorf("hmc: packet too short (%d bytes)", len(wire))
	}
	if len(wire)%FlitBytes != 0 {
		return nil, fmt.Errorf("hmc: packet length %d not flit-aligned", len(wire))
	}
	wantCRC := binary.LittleEndian.Uint32(wire[len(wire)-4:])
	gotCRC := crc32.Checksum(wire[:len(wire)-4], crcTable)
	if wantCRC != gotCRC {
		return nil, fmt.Errorf("hmc: CRC mismatch: header %#x computed %#x", wantCRC, gotCRC)
	}
	flits := int(wire[1] & 0x3f)
	if flits*FlitBytes != len(wire) {
		return nil, fmt.Errorf("hmc: length field %d flits, wire %d bytes", flits, len(wire))
	}
	p := &Packet{
		Cmd: Command(wire[0]),
		Tag: binary.LittleEndian.Uint16(wire[2:4]),
		Addr: uint64(binary.LittleEndian.Uint32(wire[4:8])) |
			uint64(wire[1]>>6)<<32,
	}
	tail := wire[len(wire)-packetTailLen:]
	p.Seq = tail[0] & 0x7
	p.ErrStat = tail[1]
	if payload := len(wire) - packetHeaderLen - packetTailLen; payload > 0 {
		p.Data = append([]byte(nil), wire[packetHeaderLen:packetHeaderLen+payload]...)
	}
	return p, nil
}
