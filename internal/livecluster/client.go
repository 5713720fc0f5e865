package livecluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"netchain/internal/kv"
	"netchain/internal/query"
	"netchain/internal/relay"
	"netchain/internal/transport"
	"netchain/internal/watch"
)

// Client is a blocking NetChain client: the agent of §3 translating API
// calls to in-network queries with retries.
type Client struct {
	ops     transport.Ops
	client  *transport.Client
	cluster *Cluster
}

// Close releases the client socket.
func (cl *Client) Close() error { return cl.client.Close() }

// Transport returns the client's transport, for callers that resolve
// routes themselves.
func (cl *Client) Transport() *transport.Client { return cl.client }

// Read returns the value and version of k.
func (cl *Client) Read(k kv.Key) (kv.Value, kv.Version, error) { return cl.ops.Read(k) }

// Write stores v under k and returns the committed version.
func (cl *Client) Write(k kv.Key, v kv.Value) (kv.Version, error) { return cl.ops.Write(k, v) }

// Delete tombstones k.
func (cl *Client) Delete(k kv.Key) error { return cl.ops.Delete(k) }

// CAS swaps k's value iff its owner field equals expect (§8.5).
func (cl *Client) CAS(k kv.Key, expect uint64, newValue kv.Value) (bool, kv.Value, error) {
	return cl.ops.CAS(k, expect, newValue)
}

// ReadAsync issues a pipelined read: it returns once the query is on the
// wire (blocking only while the client's in-flight window is full) and
// invokes done from the receive goroutine, which must not block. Use
// Config.ClientWindow to size the pipe.
func (cl *Client) ReadAsync(k kv.Key, done func(kv.Value, kv.Version, error)) {
	cl.ops.ReadAsync(k, done)
}

// WriteAsync issues a pipelined write; see ReadAsync for the contract.
func (cl *Client) WriteAsync(k kv.Key, v kv.Value, done func(kv.Version, error)) {
	cl.ops.WriteAsync(k, v, done)
}

// CASAsync issues a pipelined compare-and-swap; see CAS and ReadAsync.
func (cl *Client) CASAsync(k kv.Key, expect uint64, newValue kv.Value, done func(bool, kv.Value, error)) {
	cl.ops.CASAsync(k, expect, newValue, done)
}

// TransportStats exposes the client's transport counters (sent datagrams,
// retries, timeouts, late/duplicate replies).
func (cl *Client) TransportStats() transport.ClientStats { return cl.client.Stats() }

// Acquire takes the exclusive lock k for owner.
func (cl *Client) Acquire(k kv.Key, owner uint64) (bool, error) { return cl.ops.Acquire(k, owner) }

// Release frees the lock k held by owner.
func (cl *Client) Release(k kv.Key, owner uint64) (bool, error) { return cl.ops.Release(k, owner) }

// Watch subscribes to server-push notifications for keys. Events arrive
// on the returned channel until ctx is cancelled (the channel then
// closes). Delivery semantics:
//
//   - every watched key that exists produces an initial Created event
//     (the state fetch), then one event per observed change;
//   - events are version-ordered per key; duplicates and reordered frames
//     are suppressed, so the stream never moves backwards;
//   - relay stream-sequence gaps trigger linearizable re-reads of the
//     affected keys, and a periodic anti-entropy sweep bounds the
//     staleness window of a lost final event — the stream converges to
//     the store's state under loss, duplication and reordering.
//
// The push path costs zero reads while the stream is healthy.
func (cl *Client) Watch(ctx context.Context, keys []kv.Key, opts ...watch.Option) (<-chan watch.Event, error) {
	o := watch.BuildOptions(opts)
	if len(keys) == 0 {
		return nil, fmt.Errorf("livecluster: Watch needs at least one key")
	}
	c := cl.cluster
	sub := watch.NewSub(keys, func(k kv.Key) uint16 { return c.ctl.Route(k).Group }, o.Buffer)
	sig := make(chan struct{}, 1)
	deliver := func(ev query.Event) {
		if sub.ApplyEvent(ev) {
			select {
			case sig <- struct{}{}:
			default:
			}
		}
	}
	var conn *relay.Conn
	if rs := c.Relay(); rs != nil {
		var subOpts []relay.SubOption
		if ttl := c.cfg.RelayLeaseTTL; ttl > 0 {
			subOpts = append(subOpts, relay.WithRenewEvery(ttl/3))
		}
		if inj := c.cfg.Faults; inj != nil {
			claddr, _ := cl.client.Endpoint()
			subOpts = append(subOpts, relay.WithSubFaults(inj.Pipe(claddr)))
		}
		sc, err := relay.Subscribe(rs.Mode(), rs.ControlEndpoint(), sub.Groups(), deliver, subOpts...)
		if err != nil && o.PollInterval == 0 {
			sub.Close()
			return nil, err
		}
		conn = sc
	} else if o.PollInterval == 0 {
		return nil, fmt.Errorf("livecluster: cluster has no relay tier (use WithPollFallback to watch anyway)")
	}
	resync, antiEntropy := o.Resync, o.AntiEntropy
	if conn == nil {
		// Poll fallback: no event stream, so every interval is a full sweep.
		resync, antiEntropy = o.PollInterval, o.PollInterval
	}
	go cl.watchLoop(ctx, sub, conn, sig, resync, antiEntropy)
	return sub.Events(), nil
}

func (cl *Client) watchLoop(ctx context.Context, sub *watch.Sub, conn *relay.Conn,
	sig <-chan struct{}, resync, antiEntropy time.Duration) {
	defer sub.Close()
	if conn != nil {
		defer conn.Close()
	}
	readDirty := func() {
		for _, k := range sub.TakeDirty() {
			v, ver, err := cl.ops.Read(k)
			switch {
			case err == nil:
				sub.ApplyRead(k, true, v, ver)
			case errors.Is(err, kv.ErrNotFound):
				sub.ApplyRead(k, false, nil, ver)
			default:
				sub.MarkDirty(k) // transient failure: retry next tick
			}
		}
	}
	readDirty() // initial state fetch (all keys start dirty)
	tick := time.NewTicker(resync)
	defer tick.Stop()
	var sweep <-chan time.Time
	if antiEntropy > 0 {
		t := time.NewTicker(antiEntropy)
		defer t.Stop()
		sweep = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-sig:
			readDirty()
		case <-tick.C:
			readDirty()
		case <-sweep:
			sub.MarkDirty()
			readDirty()
		}
	}
}
