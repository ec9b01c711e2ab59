package monocle

import (
	"testing"
	"time"
)

// TestProxyGroupPostsBeforeOverdueTimers: a post queued while the event
// loop is stalled runs before a timer that fell due during the stall, as
// a probe catch must run before the observation deadline it beat.
func TestProxyGroupPostsBeforeOverdueTimers(t *testing.T) {
	g := NewProxyGroup()
	g.retain()
	defer g.release()
	var order []string
	both := make(chan struct{})
	record := func(what string) {
		if order = append(order, what); len(order) == 2 {
			close(both)
		}
	}
	g.call(func() {
		g.clock.After(5*time.Millisecond, func() { record("timer") })
		g.post(func() { record("post") })
		time.Sleep(20 * time.Millisecond) // the stall
	})
	select {
	case <-both:
	case <-time.After(5 * time.Second):
		t.Fatal("the post and the timer did not both run within 5s")
	}
	if order[0] != "post" {
		t.Fatalf("order %v: the overdue timer fired ahead of the queued post", order)
	}
}
