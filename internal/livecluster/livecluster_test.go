package livecluster

import (
	"context"
	"testing"
	"time"

	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/watch"
)

// TestPushWatchPollFallback: with no relay tier reachable, WithPollFallback
// degrades the same API to version polling instead of failing.
func TestPushWatchPollFallback(t *testing.T) {
	cl, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	writer, _ := cl.NewClient(0)
	defer writer.Close()

	k := kv.KeyFromString("push/poll")
	cl.Insert(k)

	// Simulate a missing relay tier.
	saved := cl.relaySrv
	cl.relaySrv = nil
	defer func() { cl.relaySrv = saved }()

	if _, err := writer.Watch(context.Background(), []kv.Key{k}); err == nil {
		t.Fatal("Watch without relay and without fallback should fail")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := writer.Watch(ctx, []kv.Key{k}, watch.WithPollFallback(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Write(k, kv.Value("v1")); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		if string(ev.Value) != "v1" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("poll fallback never delivered")
	}
}

// TestClientAddressesDoNotWrap: the 256th client must not reuse the first
// client's address, or the address book re-points client 1's replies.
func TestClientAddressesDoNotWrap(t *testing.T) {
	cl, err := Start(Config{Switches: 1, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	first, err := cl.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	k := kv.KeyFromString("wrap")
	if err := cl.Insert(k); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Write(k, kv.Value("v1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		c, err := cl.NewClient(0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	if a, _ := first.Transport().Endpoint(); a != packet.AddrFrom4(10, 1, 0, 1) {
		t.Fatalf("first client address = %v, want 10.1.0.1", a)
	}
	if v, _, err := first.Read(k); err != nil || string(v) != "v1" {
		t.Fatalf("first client read after 256 more clients = %q, %v", v, err)
	}
}
