// Command monocle runs Monocle proxy Monitors over real TCP OpenFlow 1.0
// connections, as in the paper's deployment: for each monitored switch the
// SDN controller connects to a proxy listen address, the proxy dials the
// switch, and every message is intercepted by that switch's Monitor state
// machine — FlowMods update the expected table and trigger dynamic probe
// monitoring; steady-state cycling can be enabled with -steady.
//
// The proxy loop itself lives in the library (monocle.ProxyBackend): this
// command is flag parsing over that driver. Single-switch mode mirrors the
// paper's one-proxy-per-switch deployment (§7):
//
//	monocle -listen :16653 -switch 10.0.0.5:6653 -id 3 \
//	        -peers 1=5,2=7 -steady
//
// Fleet mode drives N switches in a single process: every ProxyBackend
// shares one monocle.ProxyGroup (one event loop, one probe-routing
// Multiplexer), so probes caught at any member switch are routed back to
// their owner — which a process-per-switch deployment cannot do. Specs
// are semicolon-separated; within a spec the peer map uses ':' pairs:
//
//	monocle -fleet "id=1,listen=:16653,switch=10.0.0.5:6653,peers=1:2 2:3;\
//	                id=2,listen=:16654,switch=10.0.0.6:6653,peers=1:1" \
//	        -steady
//
// With -steady, each switch's Monitor generates probes for the rules it
// learned from the controller's FlowMods and injects them on the paper's
// steady-state cycle, logging an ALARM for any rule the data plane stops
// honouring.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"monocle"
)

// switchSpec is one monitored switch's configuration.
type switchSpec struct {
	id     uint32
	listen string
	swAddr string
	peers  map[monocle.PortID]uint32
	tag    uint64
}

// parsePeerPairs parses port/switchID pairs (one per element, split on
// kvSep) into a peer map.
func parsePeerPairs(pairs []string, kvSep string) (map[monocle.PortID]uint32, error) {
	peers := map[monocle.PortID]uint32{}
	for _, kv := range pairs {
		parts := strings.SplitN(kv, kvSep, 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad peers entry %q", kv)
		}
		p, err1 := strconv.ParseUint(parts[0], 10, 16)
		sw, err2 := strconv.ParseUint(parts[1], 10, 32)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad peers entry %q", kv)
		}
		peers[monocle.PortID(p)] = uint32(sw)
	}
	return peers, nil
}

// parsePeers parses the single-switch -peers flag (comma-separated
// port=switchID pairs).
func parsePeers(s string) (map[monocle.PortID]uint32, error) {
	if s == "" {
		return map[monocle.PortID]uint32{}, nil
	}
	return parsePeerPairs(strings.Split(s, ","), "=")
}

// parseFleet parses the -fleet spec list. Within one spec, fields are
// comma-separated key=value pairs; the peers value holds space- or
// colon-pair-separated port=switch entries (e.g. "peers=1:5 2:7" or
// "peers=1:5").
func parseFleet(s string) ([]switchSpec, error) {
	var specs []switchSpec
	for _, raw := range strings.Split(s, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		spec := switchSpec{peers: map[monocle.PortID]uint32{}}
		for _, kv := range strings.Split(raw, ",") {
			parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("bad fleet entry %q", kv)
			}
			key, val := parts[0], parts[1]
			switch key {
			case "id":
				id, err := strconv.ParseUint(val, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("bad fleet id %q", val)
				}
				spec.id = uint32(id)
			case "listen":
				spec.listen = val
			case "switch":
				spec.swAddr = val
			case "tag":
				tag, err := strconv.ParseUint(val, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("bad fleet tag %q", val)
				}
				spec.tag = tag
			case "peers":
				pm, err := parsePeerPairs(strings.Fields(val), ":")
				if err != nil {
					return nil, fmt.Errorf("fleet %w", err)
				}
				for p, sw := range pm {
					spec.peers[p] = sw
				}
			default:
				return nil, fmt.Errorf("unknown fleet key %q", key)
			}
		}
		if spec.id == 0 || spec.listen == "" || spec.swAddr == "" {
			return nil, fmt.Errorf("fleet spec %q needs id, listen, and switch", raw)
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-fleet given but no specs parsed")
	}
	return specs, nil
}

func main() {
	var (
		listen   = flag.String("listen", ":16653", "controller-side listen address (single-switch mode)")
		swAddr   = flag.String("switch", "127.0.0.1:6653", "switch address to dial (single-switch mode)")
		id       = flag.Uint("id", 1, "this switch's Monocle identifier / probe tag (single-switch mode)")
		peers    = flag.String("peers", "", "port=switchID map, e.g. 1=5,2=7 (ports without entries are treated as edge ports)")
		fleet    = flag.String("fleet", "", "multi-switch specs 'id=..,listen=..,switch=..[,peers=p:s ...][,tag=..];...' (overrides the single-switch flags)")
		steady   = flag.Bool("steady", false, "enable steady-state monitoring of all proxied rules")
		rate     = flag.Float64("rate", 500, "steady-state probe rate (probes/s)")
		reserved = flag.String("reserved", "", "comma-separated reserved tag values; prints the catching FlowMods for this switch and exits")
	)
	flag.Parse()

	specs := []switchSpec{}
	if *fleet != "" {
		fs, err := parseFleet(*fleet)
		if err != nil {
			log.Fatalf("parsing -fleet: %v", err)
		}
		specs = fs
	} else {
		pm, err := parsePeers(*peers)
		if err != nil {
			log.Fatalf("parsing -peers: %v", err)
		}
		specs = append(specs, switchSpec{
			id: uint32(*id), listen: *listen, swAddr: *swAddr, peers: pm,
		})
	}

	// One shared group: one event loop, one Multiplexer, cross-switch
	// probe routing.
	group := monocle.NewProxyGroup()
	backends := make([]*monocle.ProxyBackend, len(specs))
	for i, spec := range specs {
		opts := []monocle.Option{
			monocle.WithProbeRate(*rate),
			monocle.WithPeers(spec.peers),
		}
		if spec.tag != 0 {
			opts = append(opts, monocle.WithProbeTag(spec.tag))
		}
		backends[i] = monocle.NewProxyBackend(monocle.ProxyConfig{
			SwitchID:   spec.id,
			SwitchAddr: spec.swAddr,
			Listen:     spec.listen,
			Steady:     *steady,
			Group:      group,
		}, opts...)
	}

	if *reserved != "" {
		var vals []uint32
		for _, v := range strings.Split(*reserved, ",") {
			x, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				log.Fatalf("bad -reserved value %q", v)
			}
			vals = append(vals, uint32(x))
		}
		for _, be := range backends {
			for _, r := range be.CatchRules(vals) {
				fmt.Printf("S%d catch rule: %v\n", be.SwitchID(), r)
			}
		}
		os.Exit(0)
	}

	for _, be := range backends {
		if err := be.Connect(context.Background()); err != nil {
			log.Fatal(err)
		}
		go logEvents(be)
	}
	select {} // the proxy runs until killed
}

// logEvents mirrors one backend's lifecycle events to the log: connects,
// disconnects, and the Monitor's own confirmations and alarms.
func logEvents(be *monocle.ProxyBackend) {
	for ev := range be.Events() {
		switch ev.Type {
		case monocle.BackendAlarm:
			log.Printf("S%d ALARM: %s", ev.SwitchID, ev.Detail)
		case monocle.BackendDisconnected:
			log.Fatalf("S%d: %s", ev.SwitchID, ev.Detail)
		default:
			log.Printf("S%d %s: %s", ev.SwitchID, ev.Type, ev.Detail)
		}
	}
}
