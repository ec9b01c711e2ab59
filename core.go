package monocle

// Core data model re-exports: the abstract packet header, ternary matches,
// rules, and flow tables. These are aliases of the internal types, so
// values returned by the facade interoperate with values built through it.

import (
	"monocle/internal/flowtable"
	"monocle/internal/header"
)

// FieldID identifies one abstract header field of the OpenFlow 1.0
// 12-tuple.
type FieldID = header.FieldID

// The OpenFlow 1.0 match fields.
const (
	InPort    = header.InPort
	EthSrc    = header.EthSrc
	EthDst    = header.EthDst
	EthType   = header.EthType
	VlanID    = header.VlanID
	VlanPCP   = header.VlanPCP
	IPSrc     = header.IPSrc
	IPDst     = header.IPDst
	IPProto   = header.IPProto
	IPTos     = header.IPTos
	TPSrc     = header.TPSrc
	TPDst     = header.TPDst
	NumFields = header.NumFields
)

// Well-known header values.
const (
	// VlanNone is the OpenFlow 1.0 sentinel for "no 802.1Q tag present".
	VlanNone = header.VlanNone
	// EthTypeIPv4 is the IPv4 EtherType.
	EthTypeIPv4 = header.EthTypeIPv4
	// EthTypeARP is the ARP EtherType.
	EthTypeARP = header.EthTypeARP
	// ProtoICMP is the ICMP IP protocol number.
	ProtoICMP = header.ProtoICMP
	// ProtoTCP is the TCP IP protocol number.
	ProtoTCP = header.ProtoTCP
	// ProtoUDP is the UDP IP protocol number.
	ProtoUDP = header.ProtoUDP
)

// Header is a fully concrete abstract packet: one value per field.
type Header = header.Header

// Ternary is a value/mask pair matching one header field.
type Ternary = header.Ternary

// Exact returns a Ternary matching field f exactly against v.
func Exact(f FieldID, v uint64) Ternary { return header.Exact(f, v) }

// Prefix returns a Ternary matching the top plen bits of field f (IPv4
// prefix style).
func Prefix(f FieldID, v uint64, plen int) Ternary { return header.Prefix(f, v, plen) }

// FieldWidth returns the bit width of field f.
func FieldWidth(f FieldID) int { return header.Width(f) }

// Match is a ternary match over every abstract header field; the zero
// value matches every packet.
type Match = flowtable.Match

// MatchAll returns the all-wildcard match.
func MatchAll() Match { return flowtable.MatchAll() }

// PortID identifies a switch port (OpenFlow 1.0 numbers physical ports
// from 1; the zero value is invalid).
type PortID = flowtable.PortID

// PortController is the reserved port for sending packets to the
// controller (catching rules use it).
const PortController = flowtable.PortController

// Action is one step of a rule's action list: a header-field rewrite, an
// output, or an ECMP group.
type Action = flowtable.Action

// Output returns an action emitting the packet on port p.
func Output(p PortID) Action { return flowtable.Output(p) }

// SetField returns an action rewriting header field f to v.
func SetField(f FieldID, v uint64) Action { return flowtable.SetField(f, v) }

// ECMP returns an action emitting the packet on exactly one of the given
// ports (the switch picks which).
func ECMP(ports ...PortID) Action { return flowtable.ECMP(ports...) }

// Rule is one prioritized flow table entry. An empty action list drops.
type Rule = flowtable.Rule

// Emission is one (port, rewritten header) pair a rule produces.
type Emission = flowtable.Emission

// Rewrite is the cumulative header rewrite a rule applies before emitting
// on a given port.
type Rewrite = flowtable.Rewrite

// Table models one switch's flow table with TCAM lookup semantics.
type Table = flowtable.Table

// NewTable returns an empty flow table (miss behaviour: drop).
func NewTable() *Table { return flowtable.New() }

// TableMiss selects what a table does with packets no rule matches.
type TableMiss = flowtable.TableMiss

// Table-miss behaviours.
const (
	// MissDrop drops unmatched packets (the default).
	MissDrop = flowtable.MissDrop
	// MissController punts unmatched packets to the controller.
	MissController = flowtable.MissController
)

// Flow table errors.
var (
	// ErrSamePriorityOverlap rejects overlapping rules at equal priority
	// (undefined behaviour on a real switch).
	ErrSamePriorityOverlap = flowtable.ErrSamePriorityOverlap
	// ErrNotFound reports a rule id absent from the table.
	ErrNotFound = flowtable.ErrNotFound
	// ErrDuplicateID rejects inserting a rule id twice.
	ErrDuplicateID = flowtable.ErrDuplicateID
)
