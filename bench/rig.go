package main

// The rig is the monitored network: monitored SwitchServers whose every
// frame emitted on port p is handed to catcher endpoint p, which returns
// it to the monitor as a PacketIn on its own OpenFlow connection.
//
// Why catchers and not the repo's self-reflecting test wiring: when a
// switch catches its own probes, the present and absent outcomes of a
// forwarding probe arrive at the same switch with the same header, so
// the judge cannot tell them apart and returns "unexpected" (in the
// prototype, 224 of 400 healthy Stanford-shaped rules raised
// rule_failing that way). rig_test.go pins this.

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"

	"monocle"
)

// rigPorts are every monitored switch's physical ports.
var rigPorts = []monocle.PortID{1, 2, 3, 4}

// catcherID is the switch id of the catcher behind port p.
func catcherID(p monocle.PortID) uint32 { return 100 + uint32(p) }

// rigAddrs is what the rig process reports to the monitor process.
type rigAddrs struct {
	Switches map[uint32]string `json:"switches"`
	Catchers map[uint32]string `json:"catchers"`
	Control  string            `json:"control"`
}

// rig owns the servers, catchers and control listener of one run.
type rig struct {
	switches map[uint32]*monocle.SwitchServer
	catchers map[uint32]*catcher
	ctl      net.Listener
	wg       sync.WaitGroup
}

// startRig starts n monitored switches (ids 1..n). With selfCatch each
// switch reflects its own emissions (the repo's test wiring) and no
// catchers start.
func startRig(n int, selfCatch bool) (*rig, error) {
	r := &rig{switches: make(map[uint32]*monocle.SwitchServer), catchers: make(map[uint32]*catcher)}
	if !selfCatch {
		for _, p := range rigPorts {
			c, err := startCatcher()
			if err != nil {
				r.close()
				return nil, err
			}
			r.catchers[catcherID(p)] = c
		}
	}
	for id := uint32(1); id <= uint32(n); id++ {
		cfg := monocle.SwitchServerConfig{ID: id, Ports: rigPorts}
		if !selfCatch {
			cfg.Deliver = func(p monocle.PortID, f monocle.Frame) { r.catchers[catcherID(p)].deliver(f) }
		}
		srv, err := monocle.StartSwitchServer(cfg)
		if err != nil {
			r.close()
			return nil, err
		}
		r.switches[id] = srv
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.ctl = ln
	r.wg.Add(1)
	go r.serveControl()
	return r, nil
}

func (r *rig) addrs() rigAddrs {
	a := rigAddrs{Switches: make(map[uint32]string), Catchers: make(map[uint32]string), Control: r.ctl.Addr().String()}
	for id, s := range r.switches {
		a.Switches[id] = s.Addr()
	}
	for id, c := range r.catchers {
		a.Catchers[id] = c.ln.Addr().String()
	}
	return a
}

// close stops everything the rig started and waits for its goroutines.
func (r *rig) close() {
	if r.ctl != nil {
		r.ctl.Close()
	}
	for _, s := range r.switches {
		s.Close()
	}
	for _, c := range r.catchers {
		c.close()
	}
	r.wg.Wait()
}

// serveControl answers "fail <switch> <rule>" and "heal <switch> <rule>"
// lines with "ok" once the switch's event loop has applied them.
func (r *rig) serveControl() {
	defer r.wg.Done()
	for {
		conn, err := r.ctl.Accept()
		if err != nil {
			return
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			for sc.Scan() {
				reply := r.control(sc.Text())
				if _, err := fmt.Fprintln(conn, reply); err != nil {
					return
				}
			}
		}()
	}
}

func (r *rig) control(line string) string {
	f := strings.Fields(line)
	if len(f) != 3 {
		return "error: want <fail|heal> <switch> <rule>"
	}
	id, err1 := strconv.ParseUint(f[1], 10, 32)
	rule, err2 := strconv.ParseUint(f[2], 10, 64)
	srv := r.switches[uint32(id)]
	if err1 != nil || err2 != nil || srv == nil {
		return "error: bad switch or rule"
	}
	switch f[0] {
	case "fail":
		srv.FailRule(rule)
	case "heal":
		srv.HealRule(rule)
	default:
		return "error: unknown command " + f[0]
	}
	return "ok"
}

// catcher is an OpenFlow endpoint with no data plane: every frame handed
// to deliver goes up its current connection as a PacketIn. Its monitor
// side is an empty proxy switch, whose Multiplexer routes the caught
// probe back to the switch that injected it.
type catcher struct {
	ln net.Listener
	wg sync.WaitGroup

	mu   sync.Mutex
	conn net.Conn
}

func startCatcher() (*catcher, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &catcher{ln: ln}
	c.wg.Add(1)
	go c.accept()
	return c, nil
}

func (c *catcher) accept() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.mu.Lock()
		if c.conn != nil {
			c.conn.Close()
		}
		c.conn = conn
		c.mu.Unlock()
		c.wg.Add(1)
		go c.read(conn)
	}
}

// read answers the keepalives and barriers a controller may send.
func (c *catcher) read(conn net.Conn) {
	defer c.wg.Done()
	for {
		msg, xid, err := monocle.ReadMessage(conn)
		if err != nil {
			return
		}
		switch msg.(type) {
		case *monocle.EchoRequest:
			c.write(conn, &monocle.EchoReply{}, xid)
		case *monocle.BarrierRequest:
			c.write(conn, &monocle.BarrierReply{}, xid)
		}
	}
}

func (c *catcher) deliver(f monocle.Frame) {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		c.write(conn, &monocle.PacketIn{BufferID: monocle.BufferNone, Reason: monocle.ReasonAction, Data: f}, 0)
	}
}

// write serializes writers on the connection; a failed write sheds it.
func (c *catcher) write(conn net.Conn, msg monocle.Message, xid uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != conn {
		return
	}
	if err := monocle.WriteMessage(conn, msg, xid); err != nil {
		conn.Close()
		c.conn = nil
	}
}

func (c *catcher) close() {
	c.ln.Close()
	c.mu.Lock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.mu.Unlock()
	c.wg.Wait()
}
