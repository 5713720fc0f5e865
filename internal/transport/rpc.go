package transport

import (
	"fmt"
	"net"
	"net/rpc"
	"time"

	"netchain/internal/controller"
	"netchain/internal/core"
	"netchain/internal/health"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
)

// AgentService exposes a switch's control-plane API over net/rpc — the
// per-switch agent of §7 (the paper used a Python process speaking Thrift
// to the ASIC and xmlrpc to the controller).
type AgentService struct {
	sw *core.Switch
}

// RuleArgs carries an InstallRule/RemoveRule request.
type RuleArgs struct {
	Dst    packet.Addr
	Group  int
	Rule   core.Rule
	Remove bool
}

// SessionArgs carries a SetSession request.
type SessionArgs struct {
	Group   uint16
	Session uint32
}

// ItemArgs carries a key or item for state access.
type ItemArgs struct {
	Key  kv.Key
	Item core.Item
}

// None is an empty reply.
type None struct{}

// InstallKey allocates a slot (Insert step, §4.1).
func (a *AgentService) InstallKey(k kv.Key, _ *None) error { return a.sw.InstallKey(k) }

// RemoveKey frees a slot (Delete GC, §4.1).
func (a *AgentService) RemoveKey(k kv.Key, _ *None) error { return a.sw.RemoveKey(k) }

// SetSession installs a head session number (§5.2).
func (a *AgentService) SetSession(args SessionArgs, _ *None) error {
	a.sw.SetSession(args.Group, args.Session)
	return nil
}

// FreezeArgs carries a FreezeWrites request.
type FreezeArgs struct {
	Group  uint16
	Frozen bool
}

// FreezeWrites installs or lifts a group's serve-while-migrating guard
// (phase 1 of a planned resize migration).
func (a *AgentService) FreezeWrites(args FreezeArgs, _ *None) error {
	a.sw.SetWriteFreeze(args.Group, args.Frozen)
	return nil
}

// Rule installs or removes a neighbor rule (Algorithms 2 and 3).
func (a *AgentService) Rule(args RuleArgs, _ *None) error {
	if args.Remove {
		a.sw.RemoveRule(args.Dst, args.Group)
	} else {
		a.sw.InstallRule(args.Dst, args.Group, args.Rule)
	}
	return nil
}

// ReadItem dumps one record (recovery state sync).
func (a *AgentService) ReadItem(k kv.Key, out *core.Item) error {
	it, err := a.sw.ReadItem(k)
	if err != nil {
		return err
	}
	*out = it
	return nil
}

// WriteItem installs one record (recovery state sync).
func (a *AgentService) WriteItem(it core.Item, _ *None) error { return a.sw.WriteItem(it) }

// Keys lists every key the switch holds a slot for (readmission wipe).
func (a *AgentService) Keys(_ None, out *[]kv.Key) error {
	*out = a.sw.Keys()
	return nil
}

// ServeAgent starts the RPC server for a switch on bind and returns the
// listener address.
func ServeAgent(sw *core.Switch, bind string) (net.Addr, func() error, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Agent", &AgentService{sw: sw}); err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, nil, err
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	return ln.Addr(), ln.Close, nil
}

// RPCAgent adapts an rpc.Client to the controller.Agent interface.
type RPCAgent struct{ C *rpc.Client }

var _ controller.Agent = RPCAgent{}

func (a RPCAgent) InstallKey(k kv.Key) error { return a.C.Call("Agent.InstallKey", k, &None{}) }
func (a RPCAgent) RemoveKey(k kv.Key) error  { return a.C.Call("Agent.RemoveKey", k, &None{}) }
func (a RPCAgent) SetSession(g uint16, s uint32) error {
	return a.C.Call("Agent.SetSession", SessionArgs{Group: g, Session: s}, &None{})
}
func (a RPCAgent) FreezeWrites(g uint16, frozen bool) error {
	return a.C.Call("Agent.FreezeWrites", FreezeArgs{Group: g, Frozen: frozen}, &None{})
}
func (a RPCAgent) InstallRule(dst packet.Addr, g int, r core.Rule) error {
	return a.C.Call("Agent.Rule", RuleArgs{Dst: dst, Group: g, Rule: r}, &None{})
}
func (a RPCAgent) RemoveRule(dst packet.Addr, g int) error {
	return a.C.Call("Agent.Rule", RuleArgs{Dst: dst, Group: g, Remove: true}, &None{})
}
func (a RPCAgent) ReadItem(k kv.Key) (core.Item, error) {
	var it core.Item
	err := a.C.Call("Agent.ReadItem", k, &it)
	return it, err
}
func (a RPCAgent) WriteItem(it core.Item) error {
	return a.C.Call("Agent.WriteItem", it, &None{})
}
func (a RPCAgent) Keys() ([]kv.Key, error) {
	var out []kv.Key
	err := a.C.Call("Agent.Keys", None{}, &out)
	return out, err
}

// DialAgent connects to a switch agent.
func DialAgent(addr string) (RPCAgent, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return RPCAgent{}, fmt.Errorf("transport: dial agent %s: %w", addr, err)
	}
	return RPCAgent{C: rpc.NewClient(conn)}, nil
}

// ControllerService exposes the controller's client-facing API over
// net/rpc: route lookup, key insertion (§3's agent ↔ controller path),
// the elastic add-switch/remove-switch admin verbs, and — when the
// autopilot is running — the cluster health view.
type ControllerService struct {
	Ctl *controller.Controller
	// Register, when set, connects a new switch's agent before AddSwitch
	// admits it into the ring (the deployment owns the agent map).
	Register func(sw packet.Addr, agentAddr string) error
	// Health, when set, supplies the detector snapshot and repair
	// history behind the ClusterHealth verb (wired by the controller
	// binary when -autopilot is on).
	Health func() HealthReport
	// Unregister, when set, is called after RemoveSwitch drains a switch
	// — the health monitor forgets it so the retired box powering off is
	// not "detected" as a failure and repaired.
	Unregister func(sw packet.Addr)
}

// RouteReply carries a route.
type RouteReply struct {
	Group uint16
	Hops  []packet.Addr
}

// RouteFor returns the current route for a key.
func (s *ControllerService) RouteFor(k kv.Key, out *RouteReply) error {
	rt := s.Ctl.Route(k)
	out.Group, out.Hops = rt.Group, rt.Hops
	return nil
}

// Insert allocates a key on its chain and returns the route.
func (s *ControllerService) Insert(k kv.Key, out *RouteReply) error {
	rt, err := s.Ctl.Insert(k)
	if err != nil {
		return err
	}
	out.Group, out.Hops = rt.Group, rt.Hops
	return nil
}

// GC removes a tombstoned key's slots.
func (s *ControllerService) GC(k kv.Key, _ *None) error { return s.Ctl.GC(k) }

// ResizeArgs names the switch an elastic membership change targets.
// AgentAddr (add only) is the new switch agent's RPC endpoint.
type ResizeArgs struct {
	Switch    packet.Addr
	AgentAddr string
}

// ResizeReply reports what the migration touched.
type ResizeReply struct {
	GroupsMigrated int
}

// AddSwitch admits a switch into the ring and blocks until the live
// migration onto the new layout completes.
func (s *ControllerService) AddSwitch(args ResizeArgs, out *ResizeReply) error {
	if s.Register != nil && args.AgentAddr != "" {
		if err := s.Register(args.Switch, args.AgentAddr); err != nil {
			return err
		}
	}
	done := make(chan struct{})
	diff, err := s.Ctl.AddSwitch(args.Switch, func() { close(done) })
	if err != nil {
		return err
	}
	<-done
	out.GroupsMigrated = len(diff.Deltas)
	return nil
}

// SwitchHealthWire is one switch's health as carried over the RPC wire.
type SwitchHealthWire struct {
	Addr          packet.Addr
	Verdict       string
	Phi           float64
	Heartbeats    uint64
	RTTEWMAus     float64
	RTTBaselineUs float64
	ProbeLossEWMA float64
	DropRateEWMA  float64
	QueueEWMA     float64
	DecodeErrs    uint64 // undecodable datagrams seen at the switch socket
	RcvBufBytes   uint32 // kernel-effective SO_RCVBUF (0 = unknown)
	Demoted       bool
}

// RepairWire is one autopilot repair-history entry on the wire.
type RepairWire struct {
	At     time.Duration
	Switch packet.Addr
	Action string
	Detail string
}

// HealthReport is the ClusterHealth reply.
type HealthReport struct {
	Switches []SwitchHealthWire
	Repairs  []RepairWire
}

// BuildHealthReport renders a detector snapshot plus autopilot history
// into the wire form (shared by the controller binary and tests).
func BuildHealthReport(det *health.Detector, ap *controller.Autopilot, now time.Duration) HealthReport {
	var rep HealthReport
	for _, h := range det.Snapshot(now) {
		rep.Switches = append(rep.Switches, SwitchHealthWire{
			Addr:          h.Addr,
			Verdict:       h.Verdict.String(),
			Phi:           h.Phi,
			Heartbeats:    h.Heartbeats,
			RTTEWMAus:     float64(h.RTTEWMA.Nanoseconds()) / 1e3,
			RTTBaselineUs: float64(h.RTTBaseline.Nanoseconds()) / 1e3,
			ProbeLossEWMA: h.ProbeLossEWMA,
			DropRateEWMA:  h.DropRateEWMA,
			QueueEWMA:     h.QueueEWMA,
			DecodeErrs:    h.DecodeErrs,
			RcvBufBytes:   h.RcvBufBytes,
			Demoted:       ap != nil && ap.Demoted(h.Addr),
		})
	}
	if ap != nil {
		for _, ev := range ap.History() {
			rep.Repairs = append(rep.Repairs, RepairWire{
				At: ev.At, Switch: ev.Switch, Action: string(ev.Action), Detail: ev.Detail,
			})
		}
	}
	return rep
}

// ClusterHealth returns per-switch φ scores, quality EWMAs, verdicts and
// the autopilot's repair history. Errors when the autopilot is off.
func (s *ControllerService) ClusterHealth(_ None, out *HealthReport) error {
	if s.Health == nil {
		return fmt.Errorf("transport: autopilot not enabled on this controller")
	}
	*out = s.Health()
	return nil
}

// RemoveSwitch live-drains a switch out of the ring and blocks until its
// state has migrated away; the switch can be shut down afterwards.
func (s *ControllerService) RemoveSwitch(args ResizeArgs, out *ResizeReply) error {
	done := make(chan struct{})
	diff, err := s.Ctl.RemoveSwitch(args.Switch, func() { close(done) })
	if err != nil {
		return err
	}
	<-done
	if s.Unregister != nil {
		s.Unregister(args.Switch)
	}
	out.GroupsMigrated = len(diff.Deltas)
	return nil
}

// ServeController starts the controller RPC endpoint.
func ServeController(ctl *controller.Controller, bind string) (net.Addr, func() error, error) {
	return ServeControllerWithRegister(ctl, nil, bind)
}

// ServeControllerWithRegister is ServeController with an agent-registration
// hook for the add-switch admin verb.
func ServeControllerWithRegister(ctl *controller.Controller,
	register func(sw packet.Addr, agentAddr string) error,
	bind string) (net.Addr, func() error, error) {
	return ServeControllerService(&ControllerService{Ctl: ctl, Register: register}, bind)
}

// ServeControllerService starts the RPC endpoint for a caller-built
// service — the controller binary wires the autopilot's Health hook into
// the service before serving.
func ServeControllerService(svc *ControllerService, bind string) (net.Addr, func() error, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Controller", svc); err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, nil, err
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	return ln.Addr(), ln.Close, nil
}

// DialDirectory returns a Directory backed by the controller RPC service.
func DialDirectory(addr string) (Directory, func() error, error) {
	c, err := rpc.Dial("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: dial controller %s: %w", addr, err)
	}
	dir := func(k kv.Key) (query.Route, error) {
		var rep RouteReply
		if err := c.Call("Controller.RouteFor", k, &rep); err != nil {
			return query.Route{}, err
		}
		return query.Route{Group: rep.Group, Hops: rep.Hops}, nil
	}
	return dir, c.Close, nil
}
