package netchain

import (
	"context"
	"fmt"
	"time"

	"netchain/internal/event"
	"netchain/internal/experiments"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/simclient"
	"netchain/internal/watch"
)

// WatchEvent is a change notification from a watch stream.
type WatchEvent = watch.Event

// Watch event types.
const (
	WatchCreated = watch.Created
	WatchUpdated = watch.Updated
	WatchDeleted = watch.Deleted
)

// WatchOption tunes a Watch call on either substrate.
type WatchOption = watch.Option

// WithWatchBuffer sizes the event channel; see watch.WithBuffer.
func WithWatchBuffer(n int) WatchOption { return watch.WithBuffer(n) }

// WithResyncInterval sets the dirty-key re-read cadence; see
// watch.WithResyncInterval.
func WithResyncInterval(d time.Duration) WatchOption { return watch.WithResyncInterval(d) }

// WithAntiEntropy sets the full re-read sweep period (0 disables it); see
// watch.WithAntiEntropy.
func WithAntiEntropy(d time.Duration) WatchOption { return watch.WithAntiEntropy(d) }

// WithPollFallback lets Watch degrade to version-polling every d when the
// cluster has no reachable relay tier; see watch.WithPollFallback.
func WithPollFallback(d time.Duration) WatchOption { return watch.WithPollFallback(d) }

// WatchStats reports a sim watch stream's engine counters (tests and
// experiments; the real API exposes them per-cluster via relay stats).
type WatchStats = watch.SubStats

// Watch subscribes to server-push notifications for keys on the
// simulated cluster — same contract as Client.Watch. The sim relay tier
// attaches on first use; events and resync reads resolve while simulated
// time advances (RunFor), so drain the channel between RunFor calls.
// Cancelling ctx tears the stream down at the next delivery or timer
// firing (give the simulator a tick of time to observe it).
func (sc *SimClient) Watch(ctx context.Context, keys []Key, opts ...WatchOption) (<-chan WatchEvent, error) {
	o := watch.BuildOptions(opts)
	if len(keys) == 0 {
		return nil, fmt.Errorf("netchain: Watch needs at least one key")
	}
	sr, err := sc.s.d.AttachRelay()
	if err != nil {
		return nil, err
	}
	ctl := sc.s.d.Ctl
	sub := watch.NewSub(keys, func(k kv.Key) uint16 { return ctl.Route(k).Group }, o.Buffer)
	w := &simWatch{sc: sc, sr: sr, sub: sub, ctx: ctx}
	w.port, w.release = sc.mux.Sink(w.recv)
	for _, g := range sub.Groups() {
		if jerr := sr.Join(g, sc.mux.Addr(), w.port); jerr != nil {
			w.teardown()
			return nil, jerr
		}
		w.groups = append(w.groups, g)
	}
	w.readDirty() // initial state fetch resolves during stepping
	if o.Resync > 0 {
		w.armTimer(event.Duration(o.Resync), w.readDirty)
	}
	if o.AntiEntropy > 0 {
		w.armTimer(event.Duration(o.AntiEntropy), func() {
			w.sub.MarkDirty()
			w.readDirty()
		})
	}
	return sub.Events(), nil
}

// simWatch runs one push-watch stream inside the simulator. The sim is
// single-threaded: recv, read callbacks and timers all fire during
// stepping, so the only synchronization is the Sub's own lock.
type simWatch struct {
	sc      *SimClient
	sr      *experiments.SimRelay
	sub     *watch.Sub
	ctx     context.Context
	port    uint16
	release func()
	groups  []uint16
	closed  bool
}

// done checks for cancellation and tears the stream down on the first
// delivery point that observes it.
func (w *simWatch) done() bool {
	if w.closed {
		return true
	}
	if w.ctx.Err() != nil {
		w.teardown()
		return true
	}
	return false
}

func (w *simWatch) teardown() {
	if w.closed {
		return
	}
	w.closed = true
	for _, g := range w.groups {
		w.sr.Leave(g, w.sc.mux.Addr(), w.port)
	}
	w.release()
	w.sub.Close()
}

func (w *simWatch) recv(f *packet.Frame) {
	if w.done() || f.NC.Op != kv.OpEvent {
		return
	}
	ev, err := query.ParseEvent(f)
	if err != nil {
		return
	}
	if w.sub.ApplyEvent(ev) {
		w.readDirty()
	}
}

func (w *simWatch) readDirty() {
	for _, k := range w.sub.TakeDirty() {
		key := k
		w.sc.c.Read(key, func(res simclient.Result) {
			if w.done() {
				return
			}
			switch {
			case res.Err == nil && res.Status == kv.StatusOK:
				w.sub.ApplyRead(key, true, res.Value, res.Version)
			case res.Err == nil && res.Status == kv.StatusNotFound:
				w.sub.ApplyRead(key, false, nil, res.Version)
			default:
				w.sub.MarkDirty(key) // timeout/unavailable: retry next tick
			}
		})
	}
}

func (w *simWatch) armTimer(iv event.Time, fn func()) {
	w.sc.s.d.Sim.After(iv, func() {
		if w.done() {
			return
		}
		fn()
		w.armTimer(iv, fn)
	})
}
