// Package livecluster is the one live NetChain deployment on loopback:
// every switch is a dataplane goroutine behind its own UDP socket, the
// controller drives them through net/rpc agents exactly as a
// multi-process deployment would, and a relay tier fans out push-watch
// events. The public netchain.StartLocalCluster, the real-UDP benchmarks
// and the wire chaos runs all boot it, so a verdict on one holds for the
// others.
//
// Addressing is fixed: switch i is 10.0.0.(i+1), the relay 10.2.0.1 and
// client n 10.1.hi.lo with n = hi<<8 | lo (clients 1–255 are 10.1.0.n).
package livecluster

import (
	"fmt"
	"math"
	"sync"
	"time"

	"netchain/internal/controller"
	"netchain/internal/core"
	"netchain/internal/faultconn"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/relay"
	"netchain/internal/ring"
	"netchain/internal/swsim"
	"netchain/internal/transport"
)

const (
	// VNodesPerSwitch is the ring's virtual-group granularity.
	VNodesPerSwitch = 8
	// SlotsPerStage bounds the keys each switch holds.
	SlotsPerStage = 4096
)

// Config sizes a cluster.
type Config struct {
	// Switches is the number of switch nodes (≥ Replicas; one extra makes
	// a spare for recovery, like the testbed's S3). Default 4.
	Switches int
	// Replicas is the chain length f+1. Default 3.
	Replicas int
	// ClientWindow caps the in-flight queries of each NewClient client;
	// async calls block when the pipe is full. 0 leaves admission uncapped
	// (blocking calls keep one query outstanding each).
	ClientWindow int
	// IngestSockets sets how many SO_REUSEPORT sockets share each switch
	// node's port (the kernel shards client flows across them by 4-tuple
	// hash). 0 = one per schedulable core, capped at 4; ignored on
	// platforms without SO_REUSEPORT.
	IngestSockets int
	// RecvBatch sets the datagrams one ingest syscall may drain per socket
	// (the receive-ring depth). 0 = 32.
	RecvBatch int
	// RelayLeaseTTL bounds the relay's unicast watch leases (0 selects
	// relay.DefaultLeaseTTL). Watch subscribers renew at a third of it, so
	// chaos tests shorten it to make a restarted relay — whose lease table
	// starts empty — re-learn its subscribers quickly.
	RelayLeaseTTL time.Duration
	// Faults, when set, threads the wire nemesis through every datagram
	// socket the cluster opens: switch ingest, the relay's ingest and
	// control sockets, clients and watch subscriptions. The controller's
	// agent RPC streams stay unfaulted, like the simulator's LocalAgent:
	// a fail-stopped dataplane keeps its control channel, so repairs can
	// still program the survivors. nil is the production configuration.
	Faults *faultconn.Injector
}

// Cluster is a running loopback deployment.
type Cluster struct {
	cfg  Config
	book *transport.AddressBook
	ctl  *controller.Controller

	// mu guards the mutable topology: AddSwitch/RemoveSwitch run while the
	// controller resolves agents from its own goroutines.
	mu       sync.RWMutex
	relaySrv *relay.Server
	nextCl   uint16
	nodes    []*transport.SwitchNode
	agents   map[packet.Addr]transport.RPCAgent
	stops    []func() error
}

// Start boots a cluster. The first cfg.Replicas switches are ring
// members; the rest are spares available to Recover.
func Start(cfg Config) (*Cluster, error) {
	if cfg.Switches == 0 {
		cfg.Switches = 4
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 3
	}
	if cfg.Switches < cfg.Replicas {
		return nil, fmt.Errorf("livecluster: %d switches cannot host %d replicas", cfg.Switches, cfg.Replicas)
	}
	c := &Cluster{
		cfg:    cfg,
		book:   transport.NewAddressBook(),
		agents: make(map[packet.Addr]transport.RPCAgent),
	}
	// The push-watch relay tier boots first so every switch node can point
	// its event sink at it from birth. Unicast-lease fan-out: loopback has
	// no multicast routing.
	if err := c.startRelay(relay.Config{Addr: packet.AddrFrom4(10, 2, 0, 1)}); err != nil {
		return nil, err
	}
	// The stop hook resolves the relay indirectly: RestartRelay swaps in a
	// fresh incarnation, and cluster shutdown must close that one.
	c.stops = append(c.stops, func() error {
		c.mu.RLock()
		cur := c.relaySrv
		c.mu.RUnlock()
		if cur != nil {
			return cur.Close()
		}
		return nil
	})
	var members []packet.Addr
	for i := 0; i < cfg.Switches; i++ {
		addr, err := c.bootSwitch()
		if err != nil {
			c.Close()
			return nil, err
		}
		if i < cfg.Replicas {
			members = append(members, addr)
		}
	}
	r, err := ring.New(ring.Config{
		VNodesPerSwitch: VNodesPerSwitch, Replicas: cfg.Replicas, Seed: 0x6e63,
	}, members)
	if err != nil {
		c.Close()
		return nil, err
	}
	ctlCfg := controller.DefaultConfig()
	ctlCfg.RuleDelay = time.Millisecond
	ctlCfg.SyncPerItem = 0
	c.ctl, err = controller.New(ctlCfg, r, controller.WallClock{},
		func(a packet.Addr) (controller.Agent, bool) {
			c.mu.RLock()
			defer c.mu.RUnlock()
			ag, ok := c.agents[a]
			return ag, ok
		},
		c.peers)
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// peers lists every live switch except failed, in boot order: where fast
// failover installs its neighbor rules.
func (c *Cluster) peers(failed packet.Addr) []packet.Addr {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []packet.Addr
	for _, n := range c.nodes {
		a := n.Switch().Addr()
		if _, live := c.agents[a]; live && a != failed {
			out = append(out, a)
		}
	}
	return out
}

// startRelay boots a relay incarnation from rcfg (filling in the lease
// TTL and fault pipe) and points every switch node's event sink at it.
func (c *Cluster) startRelay(rcfg relay.Config) error {
	rcfg.LeaseTTL = c.cfg.RelayLeaseTTL
	if c.cfg.Faults != nil {
		rcfg.Faults = c.cfg.Faults.Pipe(rcfg.Addr)
	}
	rs, err := relay.Start(rcfg)
	if err != nil {
		return err
	}
	if c.cfg.Faults != nil {
		c.cfg.Faults.RegisterEndpoint(rcfg.Addr, rs.IngestEndpoint())
		c.cfg.Faults.RegisterEndpoint(rcfg.Addr, rs.ControlEndpoint())
	}
	c.mu.Lock()
	c.relaySrv = rs
	nodes := append([]*transport.SwitchNode(nil), c.nodes...)
	c.mu.Unlock()
	for _, n := range nodes {
		n.SetEventSink(rs.Addr(), rs.IngestEndpoint())
	}
	return nil
}

// bootSwitch starts one switch dataplane node plus its control agent and
// registers both; the new switch's index is len-1 after the call.
func (c *Cluster) bootSwitch() (packet.Addr, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	addr := packet.AddrFrom4(10, 0, 0, byte(len(c.nodes)+1))
	sw, err := core.NewSwitch(addr, swsim.Config{
		Stages: 8, SlotBytes: 16, SlotsPerStage: SlotsPerStage, PPS: 1e9,
	})
	if err != nil {
		return 0, err
	}
	nodeOpts := []transport.NodeOption{
		transport.WithIngestSockets(c.cfg.IngestSockets),
		transport.WithRecvBatch(c.cfg.RecvBatch),
	}
	if c.cfg.Faults != nil {
		nodeOpts = append(nodeOpts, transport.WithFaultPipe(c.cfg.Faults.Pipe(addr)))
	}
	node, err := transport.NewSwitchNode(sw, c.book, "127.0.0.1:0", nodeOpts...)
	if err != nil {
		return 0, err
	}
	if c.relaySrv != nil {
		node.SetEventSink(c.relaySrv.Addr(), c.relaySrv.IngestEndpoint())
	}
	if c.cfg.Faults != nil {
		c.cfg.Faults.RegisterEndpoint(addr, node.Endpoint())
	}
	c.nodes = append(c.nodes, node)
	c.stops = append(c.stops, node.Close)

	rpcAddr, stop, err := transport.ServeAgent(sw, "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	c.stops = append(c.stops, stop)
	agent, err := transport.DialAgent(rpcAddr.String())
	if err != nil {
		return 0, err
	}
	c.agents[addr] = agent
	return addr, nil
}

// Close shuts everything down.
func (c *Cluster) Close() error {
	c.mu.Lock()
	stops := c.stops
	c.stops = nil
	c.mu.Unlock()
	var first error
	for i := len(stops) - 1; i >= 0; i-- {
		if err := stops[i](); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SwitchAddr returns the virtual address of switch i.
func (c *Cluster) SwitchAddr(i int) packet.Addr { return c.Node(i).Switch().Addr() }

// Node returns switch i's transport node.
func (c *Cluster) Node(i int) *transport.SwitchNode {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[i]
}

// Switches returns the number of switch nodes booted so far (including
// drained ones, whose indexes stay valid but dead).
func (c *Cluster) Switches() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// Book returns the address book every node and client resolves through.
func (c *Cluster) Book() *transport.AddressBook { return c.book }

// Relay returns the current relay incarnation.
func (c *Cluster) Relay() *relay.Server {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.relaySrv
}

// Insert allocates a key on its chain; required before writes (§4.1).
func (c *Cluster) Insert(k kv.Key) error {
	_, err := c.ctl.Insert(k)
	return err
}

// GC reclaims the slots of a key a client tombstoned.
func (c *Cluster) GC(k kv.Key) error { return c.ctl.GC(k) }

// Controller exposes the control plane for advanced use.
func (c *Cluster) Controller() *controller.Controller { return c.ctl }

// RelayStats snapshots the push-watch relay tier's counters: events
// ingested/deduplicated/sequenced, fan-out datagrams, live leases.
func (c *Cluster) RelayStats() relay.Stats { return c.Relay().Stats() }

// RestartRelay kills the relay tier and boots a fresh incarnation on the
// same endpoints: new sequencer epoch, empty lease table, per-group
// sequences back to 1 — the crash-restart failure push-watch subscribers
// must survive. Live subscriptions keep renewing against the same control
// endpoint, so the new incarnation re-learns them within one renew
// cadence; the epoch change makes every subscriber treat the boundary as
// a gap and resync (watch.Sub).
func (c *Cluster) RestartRelay() error {
	old := c.Relay()
	if err := old.Close(); err != nil {
		return err
	}
	if err := c.startRelay(relay.Config{Bind: old.IngestEndpoint().String(), Addr: old.Addr()}); err != nil {
		return fmt.Errorf("livecluster: relay restart: %w", err)
	}
	return nil
}

// await runs op, which starts a controller action that calls its done
// callback on completion, and waits up to limit for it.
func await(what string, limit time.Duration, op func(done func()) error) error {
	done := make(chan struct{})
	if err := op(func() { close(done) }); err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-time.After(limit):
		return fmt.Errorf("livecluster: %s timed out", what)
	}
}

// FailSwitch kills switch i (fail-stop) and runs fast failover
// (Algorithm 2). Returns when the neighbor rules are installed.
func (c *Cluster) FailSwitch(i int) error {
	node := c.Node(i)
	if err := node.Close(); err != nil {
		return err
	}
	return await("failover", 10*time.Second, func(done func()) error {
		return c.ctl.HandleFailure(node.Switch().Addr(), done)
	})
}

// Recover restores the failed switch i's chains using spare switch j
// (Algorithm 3: pre-sync + two-phase atomic switching, per virtual group).
func (c *Cluster) Recover(i, spare int) error {
	return await("recovery", 60*time.Second, func(done func()) error {
		return c.ctl.Recover(c.SwitchAddr(i), []packet.Addr{c.SwitchAddr(spare)}, done)
	})
}

// AddSwitch boots a brand-new switch node (dataplane socket + control
// agent) and live-migrates the cluster onto a ring layout that includes
// it: per-group state copy, session bump, atomic route flip — clients keep
// reading throughout. It returns the new switch's index.
func (c *Cluster) AddSwitch() (int, error) {
	addr, err := c.bootSwitch()
	if err != nil {
		return 0, err
	}
	if err := await("scale-out", 60*time.Second, func(done func()) error {
		_, err := c.ctl.AddSwitch(addr, done)
		return err
	}); err != nil {
		return 0, err
	}
	return c.Switches() - 1, nil
}

// RemoveSwitch live-drains ring member i: its virtual groups retire, their
// keys migrate to the surviving switches, and once the drain completes the
// now-empty switch is shut down. Its index stays valid but dead.
func (c *Cluster) RemoveSwitch(i int) error {
	node := c.Node(i)
	addr := node.Switch().Addr()
	if err := await("scale-in", 60*time.Second, func(done func()) error {
		_, err := c.ctl.RemoveSwitch(addr, done)
		return err
	}); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.agents, addr)
	c.mu.Unlock()
	return node.Close()
}

// NewClient attaches a client through switch gateway (its "ToR") with
// the cluster's ClientWindow and the transport's default timeout and
// retry budget.
func (c *Cluster) NewClient(gateway int) (*Client, error) {
	return c.Attach(gateway, transport.ClientConfig{Window: c.cfg.ClientWindow})
}

// Attach attaches a client through switch gateway. cc carries the
// per-client tuning (Window, Timeout, Retries, backoff, Tracer,
// TraceSampleRate); the cluster assigns its address, gateway, bind
// address and fault pipe.
func (c *Cluster) Attach(gateway int, cc transport.ClientConfig) (*Client, error) {
	c.mu.Lock()
	if c.nextCl == math.MaxUint16 {
		c.mu.Unlock()
		return nil, fmt.Errorf("livecluster: all %d client addresses in use", math.MaxUint16)
	}
	c.nextCl++
	n := c.nextCl
	c.mu.Unlock()
	cc.Addr = packet.AddrFrom4(10, 1, byte(n>>8), byte(n))
	cc.Gateway = c.SwitchAddr(gateway)
	cc.Bind = "127.0.0.1:0"
	if c.cfg.Faults != nil {
		cc.Faults = c.cfg.Faults.Pipe(cc.Addr)
	}
	tc, err := transport.NewClient(c.book, cc)
	if err != nil {
		return nil, err
	}
	if c.cfg.Faults != nil {
		c.cfg.Faults.RegisterEndpoint(cc.Addr, tc.LocalEndpoint())
	}
	cl := &Client{client: tc, cluster: c}
	cl.ops = transport.Ops{Client: tc, Dir: c.route}
	return cl, nil
}

// route resolves k's current chain through the controller.
func (c *Cluster) route(k kv.Key) (query.Route, error) {
	rt := c.ctl.Route(k)
	return query.Route{Group: rt.Group, Hops: rt.Hops}, nil
}
