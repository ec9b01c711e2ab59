package monocle

// OpenFlow 1.0 wire-protocol re-exports: the message types and codec that
// transport integrations (TCP proxies, the SwitchServer) speak, the
// converters between wire structures and the facade's Match/Action model,
// and the probe frame codec (CraftFrame, ParseFrame, probe metadata).

import (
	"io"

	"monocle/internal/openflow"
	"monocle/internal/packet"
)

// Message is one OpenFlow 1.0 protocol message.
type Message = openflow.Message

// FlowMod installs, modifies, or deletes a flow table entry.
type FlowMod = openflow.FlowMod

// PacketIn delivers a data plane packet to the controller.
type PacketIn = openflow.PacketIn

// PacketOut injects a packet into the switch's data plane.
type PacketOut = openflow.PacketOut

// BarrierRequest asks the switch to finish all preceding operations.
type BarrierRequest = openflow.BarrierRequest

// BarrierReply acknowledges a BarrierRequest.
type BarrierReply = openflow.BarrierReply

// EchoRequest is the OpenFlow keepalive probe.
type EchoRequest = openflow.EchoRequest

// EchoReply answers an EchoRequest.
type EchoReply = openflow.EchoReply

// WireMatch is the fixed-layout OpenFlow 1.0 match structure.
type WireMatch = openflow.WireMatch

// WireAction is one wire-encoded OpenFlow 1.0 action.
type WireAction = openflow.Action

// FlowMod commands.
const (
	FCAdd          = openflow.FCAdd
	FCModify       = openflow.FCModify
	FCModifyStrict = openflow.FCModifyStrict
	FCDelete       = openflow.FCDelete
	FCDeleteStrict = openflow.FCDeleteStrict
)

// PacketIn reasons.
const (
	// ReasonNoMatch marks a PacketIn punted by a table miss.
	ReasonNoMatch = openflow.ReasonNoMatch
	// ReasonAction marks a PacketIn produced by an output-to-controller
	// action (how caught probes surface).
	ReasonAction = openflow.ReasonAction
)

// Wire-protocol sentinels.
const (
	// BufferNone marks a PacketOut/FlowMod carrying its own payload.
	BufferNone = openflow.BufferNone
	// PortNone is the "no port" wildcard in FlowMod delete filters.
	PortNone = openflow.PortNone
	// PortTable makes a PacketOut traverse the flow table like a data
	// packet (how Monocle injects probes, §8.3.1).
	PortTable = openflow.PortTable
)

// OutputAction returns the wire action emitting the packet on port.
func OutputAction(port uint16) WireAction { return openflow.OutputAction(port) }

// FromMatch converts a facade Match to the wire structure. Only
// OpenFlow 1.0-expressible matches convert (prefixes on nw_src/nw_dst,
// exact values elsewhere).
func FromMatch(m Match) (WireMatch, error) { return openflow.FromMatch(m) }

// FromActions converts facade actions to wire actions.
func FromActions(actions []Action) ([]WireAction, error) { return openflow.FromActions(actions) }

// WriteMessage frames and writes one message.
func WriteMessage(w io.Writer, msg Message, xid uint32) error {
	return openflow.WriteMessage(w, msg, xid)
}

// ReadMessage reads exactly one framed message.
func ReadMessage(r io.Reader) (Message, uint32, error) { return openflow.ReadMessage(r) }

// ProbeMetadata identifies one in-flight probe: it rides in the probe
// payload and routes the caught probe back to its owning Monitor.
type ProbeMetadata = packet.Metadata

// Expectation tells the collector how to interpret a probe's arrival.
type Expectation = packet.Expectation

// Expectation values.
const (
	// ExpectPresent: arrival consistent with Present confirms the rule.
	ExpectPresent = packet.ExpectPresent
	// ExpectAbsent: arrival consistent with Absent confirms a deletion.
	ExpectAbsent = packet.ExpectAbsent
	// ExpectModified: arrival with the new rewrite confirms a
	// modification.
	ExpectModified = packet.ExpectModified
)

// CraftFrame serializes an abstract probe header plus payload into a real
// Ethernet/IPv4 frame (what PacketOut carries).
func CraftFrame(h Header, payload []byte) ([]byte, error) { return packet.Craft(h, payload) }

// ParseFrame decodes a frame back into the abstract header and payload.
func ParseFrame(frame []byte) (Header, []byte, error) { return packet.Parse(frame) }

// UnmarshalProbeMetadata decodes a probe payload; it returns an error for
// payloads that are not Monocle probes.
func UnmarshalProbeMetadata(b []byte) (ProbeMetadata, error) { return packet.UnmarshalMetadata(b) }
