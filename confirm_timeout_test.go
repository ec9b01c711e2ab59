package monocle

import (
	"testing"
	"time"
)

// TestProxyObserveTimeoutFollowsPolicy: a proxy switch's observation
// deadline is the policy's "confirm within" for it at registration and
// after every policy swap, and the proxy default again once the policy is
// cleared.
func TestProxyObserveTimeoutFollowsPolicy(t *testing.T) {
	tight, err := ParsePolicy("policy edge { select tag \"edge\"\n confirm within 80ms }\n")
	if err != nil {
		t.Fatal(err)
	}
	loose, err := ParsePolicy("policy edge { select tag \"edge\"\n confirm within 700ms }\n")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := StartSwitchServer(SwitchServerConfig{ID: 1, Ports: []PortID{1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	svc := NewService(WithPolicy(tight))
	defer svc.Close()
	if _, err := svc.AddSwitch(SwitchSpec{ID: 1, Backend: "proxy", Address: srv.Addr(), Tags: []string{"edge"}}); err != nil {
		t.Fatal(err)
	}
	be, _ := svc.Fleet().Backend(1)
	pb := UnwrapBackend(be).(*ProxyBackend)
	check := func(when string, want time.Duration) {
		t.Helper()
		pb.mu.Lock()
		got := pb.cfg.ObserveTimeout
		pb.mu.Unlock()
		if got != want {
			t.Fatalf("%s: observe timeout %v, want %v", when, got, want)
		}
	}
	check("at registration", 80*time.Millisecond)
	svc.SetPolicy(loose)
	check("after a policy swap", 700*time.Millisecond)
	svc.SetPolicy(nil)
	check("after the policy is cleared", defaultObserveTimeout)
}
