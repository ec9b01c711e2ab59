package header

// This file models the two technical concerns of translating an abstract
// SAT solution into data a packet-crafting library will accept (§5.2):
//
//  1. limited domains of some field values (e.g. dl_type must be a real
//     EtherType, nw_proto must be a protocol the crafting library knows),
//     handled either by an explicit "must be one of" constraint for small
//     domains or by the spare-value substitution lemma for large ones; and
//
//  2. conditionally-included fields (e.g. tp_src exists only when
//     nw_proto selects TCP/UDP), captured as a parent-field dependency
//     tree that the prober uses to eliminate conditionally-excluded
//     fields from the solution.

// Domain describes the set of values a field may take in a valid packet.
type Domain struct {
	// Values enumerates the domain if it is small; nil means the domain
	// is the field's full range (subject to ExcludedRanges).
	Values []uint64
	// ExcludedRanges lists inclusive [lo,hi] ranges of invalid values
	// carved out of an otherwise full range (e.g. dl_vlan
	// 0xfff..0xfffe between the valid VIDs and the VlanNone sentinel).
	ExcludedRanges [][2]uint64
}

// Full reports whether the domain is the field's entire range.
func (d Domain) Full() bool { return d.Values == nil && len(d.ExcludedRanges) == 0 }

// Contains reports whether v is a valid domain value.
func (d Domain) Contains(v uint64) bool {
	if d.Values != nil {
		for _, x := range d.Values {
			if x == v {
				return true
			}
		}
		return false
	}
	for _, r := range d.ExcludedRanges {
		if v >= r[0] && v <= r[1] {
			return false
		}
	}
	return true
}

// Spare returns a domain value not present in `used`, for the spare-value
// substitution of §5.2 ("assume the domain contains at least one spare
// value"). The max argument bounds the search for full-range domains.
// ok is false when no spare value exists.
func (d Domain) Spare(used map[uint64]bool, max uint64) (uint64, bool) {
	if d.Values != nil {
		for _, v := range d.Values {
			if !used[v] {
				return v, true
			}
		}
		return 0, false
	}
	for v := uint64(0); v <= max; v++ {
		if !used[v] && d.Contains(v) {
			return v, true
		}
	}
	return 0, false
}

// DefaultDomains returns the per-field value domains assumed by the
// reference packet crafter. dl_type is restricted to IPv4 (probes are IPv4
// packets so that the full 12-tuple is exercisable); nw_proto to
// ICMP/TCP/UDP; dl_vlan to valid VIDs plus the no-tag sentinel.
func DefaultDomains() map[FieldID]Domain {
	return map[FieldID]Domain{
		EthType: {Values: []uint64{EthTypeIPv4}},
		IPProto: {Values: []uint64{ProtoICMP, ProtoTCP, ProtoUDP}},
		VlanPCP: {}, // full 3-bit range
		// dl_vlan: VIDs 0..4094 are valid, 4095 is reserved, and
		// 0xffff is the "untagged" sentinel. Everything in between is
		// invalid on the wire.
		VlanID: {ExcludedRanges: [][2]uint64{{4095, VlanNone - 1}}},
	}
}

// Dependency describes a conditionally-included field (§5.2): the field is
// present in a real packet only when Parent takes one of ParentValues.
type Dependency struct {
	Parent       FieldID
	ParentValues []uint64
}

// Dependencies returns the conditional-inclusion tree for the OpenFlow 1.0
// abstract packet:
//
//	nw_* fields require dl_type == IPv4;
//	tp_* fields require nw_proto in {TCP, UDP, ICMP}; for ICMP the
//	"ports" carry the 8-bit type and code (OpenFlow 1.0 convention), so
//	only values up to 255 survive the wire and the probe generator
//	constrains them to that range;
//	dl_vlan_pcp requires a VLAN tag to be present (dl_vlan != VlanNone).
//
// dl_vlan_pcp is handled specially by callers because its condition is an
// inequality; here it is expressed as "parent dl_vlan with the valid-VID
// enumeration" being impractical, so PCPRequiresTag is exposed instead.
func Dependencies() map[FieldID]Dependency {
	ipOnly := Dependency{Parent: EthType, ParentValues: []uint64{EthTypeIPv4}}
	tports := Dependency{Parent: IPProto, ParentValues: []uint64{ProtoTCP, ProtoUDP, ProtoICMP}}
	return map[FieldID]Dependency{
		IPSrc:   ipOnly,
		IPDst:   ipOnly,
		IPProto: ipOnly,
		IPTos:   ipOnly,
		TPSrc:   tports,
		TPDst:   tports,
	}
}

// PCPRequiresTag reports whether the dl_vlan_pcp field is conditionally
// excluded for the given dl_vlan value (no tag → no PCP bits).
func PCPRequiresTag(vlanID uint64) bool { return vlanID == VlanNone }
