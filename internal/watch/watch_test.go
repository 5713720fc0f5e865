package watch

import (
	"testing"

	"netchain/internal/kv"
)

// The read-driven cases below feed a Sub versioned read results the way
// a poll-fallback loop or an anti-entropy sweep does.

func read(s *Sub, k kv.Key, val string, seq uint64) {
	s.ApplyRead(k, true, kv.Value(val), kv.Version{Seq: seq})
}

func expectEvent(t *testing.T, ch <-chan Event, typ EventType) Event {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("channel closed")
		}
		if ev.Type != typ {
			t.Fatalf("event = %v, want %v", ev.Type, typ)
		}
		return ev
	default:
		t.Fatalf("no %v event", typ)
	}
	return Event{}
}

func expectNoEvent(t *testing.T, ch <-chan Event) {
	t.Helper()
	select {
	case ev := <-ch:
		t.Fatalf("unexpected event %v", ev)
	default:
	}
}

func TestCreateUpdateDeleteLifecycle(t *testing.T) {
	k := kv.KeyFromString("cfg")
	s := NewSub([]kv.Key{k}, groupMod4, 16)
	defer s.Close()
	ch := s.Events()

	s.ApplyRead(k, false, nil, kv.Version{})
	expectNoEvent(t, ch) // absent key: nothing yet

	read(s, k, "v1", 1)
	ev := expectEvent(t, ch, Created)
	if string(ev.Value) != "v1" || ev.Version.Seq != 1 {
		t.Fatalf("created = %+v", ev)
	}

	read(s, k, "v1", 1)
	expectNoEvent(t, ch) // unchanged: deduped by version

	read(s, k, "v2", 2)
	ev = expectEvent(t, ch, Updated)
	if string(ev.Value) != "v2" || ev.Version.Seq != 2 {
		t.Fatalf("updated = %+v", ev)
	}

	s.ApplyRead(k, false, nil, kv.Version{})
	expectEvent(t, ch, Deleted)

	read(s, k, "v3", 3)
	expectEvent(t, ch, Created) // reappearance
}

func TestStaleVersionsDoNotFire(t *testing.T) {
	k := kv.KeyFromString("k")
	s := NewSub([]kv.Key{k}, groupMod4, 16)
	defer s.Close()

	read(s, k, "v5", 5)
	expectEvent(t, s.Events(), Created)

	// A regressed version (would indicate a consistency violation) must
	// not produce an Updated event.
	read(s, k, "old", 3)
	expectNoEvent(t, s.Events())
}

// Two subscriptions over one key are independent: closing one closes only
// its own channel.
func TestMultipleSubscribers(t *testing.T) {
	k := kv.KeyFromString("k")
	s1 := NewSub([]kv.Key{k}, groupMod4, 16)
	s2 := NewSub([]kv.Key{k}, groupMod4, 16)
	defer s2.Close()

	for _, s := range []*Sub{s1, s2} {
		read(s, k, "v", 1)
		expectEvent(t, s.Events(), Created)
	}

	s1.Close()
	if _, ok := <-s1.Events(); ok {
		t.Fatal("closed channel must close")
	}
	read(s1, k, "v2", 2)
	read(s2, k, "v2", 2)
	expectEvent(t, s2.Events(), Updated)
}

func TestSlowSubscriberCoalesces(t *testing.T) {
	k := kv.KeyFromString("k")
	s := NewSub([]kv.Key{k}, groupMod4, 16)
	defer s.Close()

	// Overflow the 16-slot buffer; reads must not block.
	for i := uint64(1); i <= 40; i++ {
		read(s, k, "v", i)
	}
	drained := len(drain(s.Events()))
	if drained == 0 || drained > 16 {
		t.Fatalf("drained %d events, want 1..16 (coalesced)", drained)
	}
}

// Close ends delivery for every feeding path: reads and dirty marks that
// race the close are dropped, never sent on the closed channel.
func TestStopClosesSubscribers(t *testing.T) {
	k := kv.KeyFromString("k")
	s := NewSub([]kv.Key{k}, groupMod4, 16)
	s.TakeDirty()
	s.Close()
	if _, ok := <-s.Events(); ok {
		t.Fatal("close must close the channel")
	}
	read(s, k, "v", 1)
	s.MarkDirty()
	if dirty := s.TakeDirty(); len(dirty) != 0 {
		t.Fatalf("closed sub marked %v dirty", dirty)
	}
}

func TestEventTypeString(t *testing.T) {
	if Created.String() != "created" || Updated.String() != "updated" || Deleted.String() != "deleted" {
		t.Fatal("event names wrong")
	}
}
