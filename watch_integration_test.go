package netchain

import (
	"context"
	"testing"
	"time"
)

// TestPushWatchOnRealCluster: the redesigned streaming API end to end on
// loopback UDP — tail commit egress, relay sequencing, unicast-lease
// fan-out — with the full Created/Updated/Deleted lifecycle.
func TestPushWatchOnRealCluster(t *testing.T) {
	cl, err := StartLocalCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	writer, _ := cl.NewClient(0)
	defer writer.Close()
	observer, _ := cl.NewClient(1)
	defer observer.Close()

	k := KeyFromString("push/cfg")
	if err := cl.Insert(k); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := observer.Watch(ctx, []Key{k})
	if err != nil {
		t.Fatal(err)
	}

	expect := func(want string) WatchEvent {
		t.Helper()
		select {
		case ev := <-ch:
			return ev
		case <-time.After(5 * time.Second):
			t.Fatalf("no event (wanted %s)", want)
		}
		return WatchEvent{}
	}

	if _, err := writer.Write(k, Value("v1")); err != nil {
		t.Fatal(err)
	}
	ev := expect("created")
	if ev.Type != WatchCreated || string(ev.Value) != "v1" {
		t.Fatalf("event = %+v", ev)
	}

	if _, err := writer.Write(k, Value("v2")); err != nil {
		t.Fatal(err)
	}
	ev = expect("updated")
	if ev.Type != WatchUpdated || string(ev.Value) != "v2" || ev.Version.Seq != 2 {
		t.Fatalf("event = %+v", ev)
	}

	if err := writer.Delete(k); err != nil {
		t.Fatal(err)
	}
	ev = expect("deleted")
	if ev.Type != WatchDeleted {
		t.Fatalf("event = %+v", ev)
	}

	rs := cl.RelayStats()
	if rs.EventsIn < 3 || rs.EgressDatagrams < 3 {
		t.Fatalf("relay stats = %+v, want ≥3 events through the tier", rs)
	}

	// ctx cancel closes the stream.
	cancel()
	select {
	case _, open := <-ch:
		if open {
			t.Fatal("event after cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel not closed after cancel")
	}
}

// TestPushWatchSurvivesFailover: a push stream keeps delivering after a
// chain switch fail-stops and the controller rewires the chain — the new
// tail's commits keep feeding the relay.
func TestPushWatchSurvivesFailover(t *testing.T) {
	cl, err := StartLocalCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	writer, _ := cl.NewClient(0)
	defer writer.Close()

	k := KeyFromString("push/ha")
	cl.Insert(k)
	if _, err := writer.Write(k, Value("v1")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := writer.Watch(ctx, []Key{k})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch: // initial Created from the state fetch
	case <-time.After(5 * time.Second):
		t.Fatal("no initial event")
	}

	if err := cl.FailSwitch(1); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Write(k, Value("post-failover")); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		if ev.Type != WatchUpdated || string(ev.Value) != "post-failover" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push stream went silent across failover")
	}
}

// TestWatcherOnRealCluster: the old polling Watcher's lifecycle test,
// carried onto Watch. Its 2 ms poll cadence becomes a 2 ms anti-entropy
// sweep, so every event may arrive by push or by re-read; the
// assertions hold either way.
func TestWatcherOnRealCluster(t *testing.T) {
	cl, err := StartLocalCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	writer, _ := cl.NewClient(0)
	defer writer.Close()
	observer, _ := cl.NewClient(1)
	defer observer.Close()

	k := KeyFromString("watched/cfg")
	if err := cl.Insert(k); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := observer.Watch(ctx, []Key{k}, WithAntiEntropy(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	expect := func(want string) WatchEvent {
		t.Helper()
		select {
		case ev := <-ch:
			return ev
		case <-time.After(5 * time.Second):
			t.Fatalf("no event (wanted %s)", want)
		}
		return WatchEvent{}
	}

	if _, err := writer.Write(k, Value("v1")); err != nil {
		t.Fatal(err)
	}
	ev := expect("created")
	if ev.Type != WatchCreated || string(ev.Value) != "v1" {
		t.Fatalf("event = %+v", ev)
	}

	if _, err := writer.Write(k, Value("v2")); err != nil {
		t.Fatal(err)
	}
	ev = expect("updated")
	if ev.Type != WatchUpdated || string(ev.Value) != "v2" || ev.Version.Seq != 2 {
		t.Fatalf("event = %+v", ev)
	}

	if err := writer.Delete(k); err != nil {
		t.Fatal(err)
	}
	ev = expect("deleted")
	if ev.Type != WatchDeleted {
		t.Fatalf("event = %+v", ev)
	}
}

// TestWatcherSurvivesFailover: a watch keeps delivering through a switch
// failure — the coordination-service behaviour applications rely on —
// with the old Watcher's 2 ms polling carried over as anti-entropy.
func TestWatcherSurvivesFailover(t *testing.T) {
	cl, err := StartLocalCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	writer, _ := cl.NewClient(0)
	defer writer.Close()

	k := KeyFromString("watched/ha")
	cl.Insert(k)
	if _, err := writer.Write(k, Value("v1")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := writer.Watch(ctx, []Key{k}, WithAntiEntropy(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	// Drain the initial Created event.
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("no initial event")
	}

	if err := cl.FailSwitch(1); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Write(k, Value("post-failover")); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		if ev.Type != WatchUpdated || string(ev.Value) != "post-failover" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch went silent across failover")
	}
}
