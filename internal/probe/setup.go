package probe

// Probe setup: every monitored switch stamps its probes with its reserved
// tag S_i in one header field (strategy 1, §6), so a neighbour's catching
// rule on that value returns the probe to the controller. SwitchConfig is
// the one place that turns a switch's tag, ports and counting mode into
// generator configuration; the facade Verifier, the proxy Monitor and the
// experiments all build their generators through it.

import (
	"fmt"

	"monocle/internal/flowtable"
	"monocle/internal/header"
)

// TagField is the header field that carries a switch's probe tag.
const TagField = header.VlanID

// maxTag is the largest tag TagField can carry: dl_vlan VIDs 4095 to
// 0xfffe are not valid on the wire (header.DefaultDomains), so a probe
// pinned to one of them can never be crafted.
const maxTag = 4094

// SwitchConfig builds the generator configuration for one switch: the
// Collect constraint pins TagField to tag, so a downstream catching rule
// intercepts the probe, rules rewriting TagField are refused (§3.2), and
// in_port is restricted to ports when any are given (§5.2). Tag 0 means no
// Collect constraint (offline generation and tests).
//
// A tag above maxTag returns an error together with the Config it asks
// for: a generator built from that Config fails every probe on its Collect
// constraint, which is what a caller without an error path (the proxy
// Monitor) gets.
func SwitchConfig(tag uint64, ports []flowtable.PortID, counting bool) (Config, error) {
	cfg := Config{
		Domains:        header.DefaultDomains(),
		ReservedFields: []header.FieldID{TagField},
		Counting:       counting,
		ValidateModel:  true,
	}
	if tag != 0 {
		cfg.Collect = flowtable.MatchAll().WithExact(TagField, tag)
	}
	if len(ports) > 0 {
		vals := make([]uint64, len(ports))
		for i, p := range ports {
			vals[i] = uint64(p)
		}
		cfg.Domains[header.InPort] = header.Domain{Values: vals}
	}
	if tag > maxTag {
		return cfg, fmt.Errorf("probe: probe tag %d outside 1-%d (dl_vlan)", tag, maxTag)
	}
	return cfg, nil
}

// Generate generates the probe for a rule of the cache's table at epoch
// through the cached session, falling back to one-shot generation when no
// session can be built.
func (c *SessionCache) Generate(epoch uint64, r *flowtable.Rule) (*Probe, error) {
	sess, err := c.Session(epoch)
	if err != nil {
		return c.g.Generate(c.table, r)
	}
	return sess.Generate(r)
}
