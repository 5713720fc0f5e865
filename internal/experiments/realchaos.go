package experiments

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"netchain/internal/controller"
	"netchain/internal/faultconn"
	"netchain/internal/health"
	"netchain/internal/kv"
	"netchain/internal/lincheck"
	"netchain/internal/livecluster"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/relay"
	"netchain/internal/transport"
	"netchain/internal/watch"
)

// RunRealChaos is the wire-side twin of RunChaos: the same named nemesis
// schedules, run against a live-UDP loopback cluster instead of the
// simulator. Real sockets, real goroutine scheduling, real wall-clock
// timeouts — and the faults are injected at the syscall boundary by
// internal/faultconn, driven by the identical netsim.Schedule values the
// sim consumes. Concurrent clients run the same read/write/CAS-lock mix,
// the recorded history is checked with internal/lincheck, a push-watch
// subscriber converges through the fault-injected relay, and (because
// there is no scripted operator on a real wire) the φ-accrual monitor
// plus autopilot do every repair hands-free.
//
// What the sim run cannot give us — and this one does — is evidence that
// the protocol's invariants survive the parts the simulator idealizes:
// kernel buffering, OS timer slop, racing ingest goroutines, TCP'd control
// RPC, and a relay whose lease state lives behind a real port.

// RealChaosOpts parameterizes a wire chaos run.
type RealChaosOpts struct {
	Schedule     string        // named nemesis schedule (see ChaosScheduleNames); default "full-nemesis"
	Seed         int64         // drives fault randomness and client mixes; default 1
	Clients      int           // concurrent client sockets; default 3
	OpsPerClient int           // operations each client issues; default 150
	Registers    int           // independent register keys; default 8
	Pause        time.Duration // think time between a client's ops; default 3 ms
	Timeout      time.Duration // per-attempt client timeout; default 25 ms
	TimeScale    float64       // wall-clock stretch of schedule time; default 20
	Heartbeat    time.Duration // heartbeat/monitor cadence; default 10 ms
	RepairWait   time.Duration // post-workload ceiling for autopilot repairs; default 20 s
}

func (o *RealChaosOpts) defaults() {
	if o.Schedule == "" {
		o.Schedule = "full-nemesis"
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Clients <= 0 || o.Clients > 3 {
		o.Clients = 3
	}
	if o.OpsPerClient == 0 {
		o.OpsPerClient = 150
	}
	if o.Registers == 0 {
		// Enough spread to stay under lincheck's per-key density ceiling
		// at the default op count.
		o.Registers = 12
	}
	if o.Pause == 0 {
		o.Pause = 3 * time.Millisecond
	}
	if o.Timeout == 0 {
		o.Timeout = 25 * time.Millisecond
	}
	if o.TimeScale == 0 {
		o.TimeScale = 20
	}
	if o.Heartbeat == 0 {
		o.Heartbeat = 10 * time.Millisecond
	}
	if o.RepairWait == 0 {
		o.RepairWait = 20 * time.Second
	}
}

// RealChaosResult reports a wire chaos run.
type RealChaosResult struct {
	Schedule string
	Seed     int64
	Lin      lincheck.Result
	History  []lincheck.Op

	Ops      int    // operations in the recorded history
	Unknowns int    // ops whose outcome the client never learned
	Timeouts uint64 // ops that exhausted retries
	Sent     uint64 // datagrams clients handed to their sockets (incl. retries)
	Retries  uint64 // retransmitted attempts across clients

	Inj faultconn.Stats // what the wire nemesis did

	// FaultFingerprint digests (seed, schedule) → the deterministic fault
	// decision stream (see faultconn.Fingerprint). Equal seeds and
	// schedules must produce equal fingerprints — the "same seed ⇒ same
	// chaos" acceptance check on a substrate where histories themselves
	// are scheduler-dependent.
	FaultFingerprint string
	// HistoryDigest identifies this run's recorded history (artifact
	// correlation, not a determinism pin — the wire is not a simulator).
	HistoryDigest string

	// Push-watch convergence through the fault-injected relay.
	WatchEvents    uint64
	WatchStats     watch.SubStats
	WatchConverged bool

	// Autopilot observations. Wire runs are always hands-free.
	FailStopInjected bool
	Repairs          []controller.RepairEvent
	Health           []health.SwitchHealth
	Failovers        int
	Demotions        int
	FalseEvictions   int // failovers of switches the schedule never killed
	DetectLatency    time.Duration
	ChainsRepaired   bool

	NemesisLog []string
}

// realCluster is the live loopback harness (livecluster) with three
// chain members plus one spare, every datagram socket threaded through
// one faultconn.Injector, plus what a hands-free wire run adds on top: a
// φ-accrual health monitor fed by switch heartbeats, and an autopilot.
type realCluster struct {
	*livecluster.Cluster
	inj     *faultconn.Injector
	sws     []packet.Addr // members [0..2], spare [3]
	clients []*livecluster.Client

	det   *health.Detector
	mon   *health.Monitor
	pilot *controller.Autopilot
}

func (rc *realCluster) Close() {
	for _, cl := range rc.clients {
		cl.Close()
	}
	if rc.mon != nil {
		rc.mon.Close()
	}
	rc.Cluster.Close()
}

// realChaosMonitorAddr is the monitor's virtual address — outside the
// switch and host ranges so fault targeting never aliases it.
var realChaosMonitorAddr = packet.AddrFrom4(10, 255, 0, 1)

func newRealCluster(o RealChaosOpts) (*realCluster, error) {
	inj := faultconn.New(o.Seed, faultconn.WithTimeScale(o.TimeScale))
	lc, err := livecluster.Start(livecluster.Config{Switches: 4, Replicas: 3, Faults: inj})
	if err != nil {
		return nil, err
	}
	rc := &realCluster{Cluster: lc, inj: inj}
	ok := false
	defer func() {
		if !ok {
			rc.Close()
		}
	}()
	for i := 0; i < lc.Switches(); i++ {
		rc.sws = append(rc.sws, lc.SwitchAddr(i))
	}

	// Health plane: the monitor's socket runs through the nemesis too
	// (its probes can be delayed and its intake degraded), heartbeats
	// resolve the monitor's virtual address through the shared book.
	mv := realChaosMonitorAddr
	rc.det = health.NewDetector(health.Defaults(o.Heartbeat))
	rc.mon, err = health.NewMonitor("127.0.0.1:0", mv, rc.det,
		health.WithMonitorFaults(inj.Pipe(mv)))
	if err != nil {
		return nil, err
	}
	inj.RegisterEndpoint(mv, rc.mon.Endpoint())
	lc.Book().Set(mv, rc.mon.Endpoint())
	for _, a := range rc.sws {
		rc.det.Track(a, rc.mon.Now())
		rc.mon.Watch(a)
	}
	rc.mon.StartProbes(2*o.Heartbeat, 8*o.Heartbeat)
	for i := range rc.sws {
		if err := lc.Node(i).StartHeartbeats(mv, o.Heartbeat); err != nil {
			return nil, err
		}
	}

	rc.pilot = controller.NewAutopilot(lc.Controller(), rc.det, controller.WallClock{}, rc.mon.Now,
		controller.AutopilotConfig{
			Interval: o.Heartbeat,
			Spares:   []packet.Addr{rc.sws[3]},
		})

	// Clients gateway through the survivors (S0 and the gray S2, never
	// the fail-stop victim S1): a client whose ToR powers off is a host
	// outage, not a protocol property this scenario measures. They are the
	// cluster's first clients, so client i+1 is 10.1.0.(i+1).
	for i := 0; i < o.Clients; i++ {
		gw := 0
		if i%2 == 1 {
			gw = 2
		}
		cl, err := lc.Attach(gw, transport.ClientConfig{Timeout: o.Timeout, Retries: 8})
		if err != nil {
			return nil, err
		}
		rc.clients = append(rc.clients, cl)
	}
	ok = true
	return rc, nil
}

// realChaosTargets maps the schedule's fault roles onto the wire
// topology, mirroring the sim testbed's historical assignment: the
// half-open partition cuts S1→S2, S2 (a tail) grays out, S1 fail-stops,
// S3 is the recovery spare, and the host-cut isolates client 1. The
// switch addressing is fixed (10.0.0.1–4), so the mapping is a pure
// function of the options — RealChaosFingerprint relies on that.
func realChaosTargets(sws []packet.Addr, clients int) chaosTargets {
	cut := packet.AddrFrom4(10, 1, 0, 1)
	if clients > 1 {
		cut = packet.AddrFrom4(10, 1, 0, 2)
	}
	return chaosTargets{
		linkA: sws[1], linkB: sws[2],
		gray: sws[2], fail: sws[1],
		spare: sws[3], cutHost: cut,
	}
}

// realChaosSchedule materializes the named scenario onto the wire
// topology, including the fail-stop step failover schedules add.
func realChaosSchedule(sc chaosScenario, tg chaosTargets) netsim.Schedule {
	schedule := sc.build(tg)
	if sc.failover {
		schedule = append(schedule, netsim.Step{
			Name: "fail-stop", At: sc.faultAt,
			Fault: netsim.FailStop{Addr: tg.fail},
		})
	}
	return schedule
}

// RealChaosFingerprint digests the fault decision stream a wire run with
// these options would inject, without booting a cluster — callers use it
// to verify the "same seed ⇒ same chaos" reproducibility contract.
func RealChaosFingerprint(o RealChaosOpts) (string, error) {
	o.defaults()
	sc, ok := chaosScenarios()[o.Schedule]
	if !ok {
		return "", fmt.Errorf("experiments: unknown chaos schedule %q (have %v)",
			o.Schedule, ChaosScheduleNames())
	}
	sws := make([]packet.Addr, 4)
	for i := range sws {
		sws[i] = packet.AddrFrom4(10, 0, 0, byte(i+1))
	}
	tg := realChaosTargets(sws, o.Clients)
	return faultconn.Fingerprint(o.Seed, realChaosSchedule(sc, tg)), nil
}

// RunRealChaos executes one wire chaos run. Harness failures (the cluster
// broke in a way no schedule explains) return an error; a
// non-linearizable history is reported in Result.Lin so callers can dump
// the history artifact.
func RunRealChaos(o RealChaosOpts) (*RealChaosResult, error) {
	o.defaults()
	sc, ok := chaosScenarios()[o.Schedule]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown chaos schedule %q (have %v)",
			o.Schedule, ChaosScheduleNames())
	}
	rc, err := newRealCluster(o)
	if err != nil {
		return nil, err
	}
	defer rc.Close()

	// Preload: register keys plus two contended locks, inserted through
	// the controller (slots land on every chain member via the RPC
	// agents) and seeded through a real client.
	names := make([]string, 0, o.Registers+2)
	for i := 0; i < o.Registers; i++ {
		names = append(names, fmt.Sprintf("k%d", i))
	}
	locks := []string{"lockA", "lockB"}
	names = append(names, locks...)
	initial := map[string]string{}
	for _, name := range names {
		k := kv.KeyFromString(name)
		val := []byte("init-" + name)
		if name == locks[0] || name == locks[1] {
			val = chaosOwnerBytes(0)
		}
		if err := rc.Insert(k); err != nil {
			return nil, err
		}
		if _, err := rc.clients[0].Write(k, val); err != nil {
			return nil, fmt.Errorf("seed %q: %w", name, err)
		}
		initial[name] = string(val)
	}

	res := &RealChaosResult{
		Schedule: o.Schedule, Seed: o.Seed,
		FailStopInjected: sc.failover,
	}

	// Push-watch subscriber through the fault-injected relay: the first
	// few registers, resynced on stream gaps by linearizable re-reads.
	watchKeys := make([]kv.Key, 0, 4)
	for i := 0; i < o.Registers && i < 4; i++ {
		watchKeys = append(watchKeys, kv.KeyFromString(names[i]))
	}
	sub := watch.NewSub(watchKeys, func(k kv.Key) uint16 { return rc.Controller().Route(k).Group }, 256)
	sig := make(chan struct{}, 1)
	deliver := func(ev query.Event) {
		if sub.ApplyEvent(ev) {
			select {
			case sig <- struct{}{}:
			default:
			}
		}
	}
	wAddr := packet.AddrFrom4(10, 3, 0, 1)
	rs := rc.Relay()
	wconn, err := relay.Subscribe(rs.Mode(), rs.ControlEndpoint(), sub.Groups(), deliver,
		relay.WithSubFaults(rc.inj.Pipe(wAddr)))
	if err != nil {
		return nil, fmt.Errorf("watch subscribe: %w", err)
	}
	defer wconn.Close()
	var watchWG sync.WaitGroup
	watchStop := make(chan struct{})
	var watchEvents uint64
	watchWG.Add(2)
	go func() { // drain the event channel; overflow self-heals via dirty marks
		defer watchWG.Done()
		for range sub.Events() {
			watchEvents++
		}
	}()
	readDirty := func() {
		for _, k := range sub.TakeDirty() {
			v, ver, rerr := rc.clients[0].Read(k)
			switch {
			case rerr == nil:
				sub.ApplyRead(k, true, v, ver)
			case errors.Is(rerr, kv.ErrNotFound):
				sub.ApplyRead(k, false, nil, ver)
			default:
				sub.MarkDirty(k)
			}
		}
	}
	go func() {
		defer watchWG.Done()
		readDirty()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-watchStop:
				return
			case <-sig:
				readDirty()
			case <-tick.C:
				readDirty()
			}
		}
	}()

	// The nemesis: same schedule builders as the sim, plus the fail-stop
	// step for failover schedules — on the wire there is no scripted
	// operator, so the autopilot must notice and repair it.
	tg := realChaosTargets(rc.sws, o.Clients)
	schedule := realChaosSchedule(sc, tg)
	res.FaultFingerprint = faultconn.Fingerprint(o.Seed, schedule)

	rc.pilot.Start()
	defer rc.pilot.Stop()

	// Workload start is the schedule's t=0.
	rc.inj.ResetClock()
	schedStart := rc.mon.Now()
	if err := rc.inj.RunSchedule(schedule); err != nil {
		return nil, err
	}

	var histMu sync.Mutex
	var history []lincheck.Op
	var harnessErr error
	fail := func(err error) {
		histMu.Lock()
		if harnessErr == nil {
			harnessErr = err
		}
		histMu.Unlock()
	}
	start := time.Now()

	var wg sync.WaitGroup
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			ops := rc.clients[cid]
			rng := rand.New(rand.NewSource(o.Seed*1000 + int64(cid)))
			holding := map[string]bool{}
			owner := uint64(cid + 1)

			// record folds one completed operation into the history; it
			// returns whether a CAS was observed to apply. The mapping
			// mirrors the sim's record() over transport.Ops error
			// semantics: timeouts are Unknown with an open return window,
			// ambiguous lock releases are Unknown, unavailability (a
			// migration freeze, a dead chain) constrains nothing.
			record := func(op lincheck.Op, opErr error, invoke time.Duration) bool {
				op.Client = cid
				op.Invoke = int64(invoke)
				op.Return = int64(time.Since(start))
				if errors.Is(opErr, kv.ErrTimeout) {
					op.Return = lincheck.Infinity
					op.Unknown = true
					histMu.Lock()
					history = append(history, op)
					histMu.Unlock()
					return false
				}
				if errors.Is(opErr, kv.ErrUnavailable) {
					return false
				}
				if opErr != nil && !(op.Kind == lincheck.Read && errors.Is(opErr, kv.ErrNotFound)) {
					fail(fmt.Errorf("client %d: %v %s: %w", cid, op.Kind, op.Key, opErr))
					return false
				}
				histMu.Lock()
				history = append(history, op)
				histMu.Unlock()
				return op.Kind == lincheck.CAS && op.OK
			}

			for n := 0; n < o.OpsPerClient; n++ {
				invoke := time.Since(start)
				switch r := rng.Float64(); {
				case r < 0.5: // read a random register
					name := names[rng.Intn(o.Registers)]
					v, _, rerr := ops.Read(kv.KeyFromString(name))
					op := lincheck.Op{Kind: lincheck.Read, Key: name}
					if rerr == nil {
						op.OK, op.Found, op.Output = true, true, string(v)
					}
					record(op, rerr, invoke)
				case r < 0.88: // write a random register
					name := names[rng.Intn(o.Registers)]
					val := fmt.Sprintf("c%d-n%d", cid, n)
					_, werr := ops.Write(kv.KeyFromString(name), kv.Value(val))
					op := lincheck.Op{Kind: lincheck.Write, Key: name, Input: val}
					op.OK = werr == nil
					record(op, werr, invoke)
				default: // fight over a lock with CAS
					lk := locks[rng.Intn(len(locks))]
					expect, newOwner := uint64(0), owner
					if holding[lk] {
						expect, newOwner = owner, 0
					}
					input := string(chaosOwnerBytes(newOwner))
					swapped, stored, cerr := ops.CAS(kv.KeyFromString(lk), expect, kv.Value(input))
					op := lincheck.Op{Kind: lincheck.CAS, Key: lk, Expect: expect, Input: input}
					assumed := false
					switch {
					case cerr == nil && swapped:
						op.OK = true
					case cerr == nil && expect != 0:
						// Failed release: owners are unique, so the stored
						// owner no longer being us means our release DID
						// apply — via this op or an earlier duplicate;
						// unknowable from here. The checker decides.
						op.Unknown = true
					case cerr == nil && string(stored) == string(chaosOwnerBytes(owner)):
						// Assumed ownership, the wire analogue of the sim
						// client's AssumeUniqueOwners: an acquire applied but
						// its reply was lost, and by the time a retransmit got
						// through the switch's duplicate-adjudication ring had
						// evicted the pinned verdict (it is depth-4 per class),
						// so the retry bounced off our own owner id. We hold
						// the lock; which attempt took it is unknowable — the
						// checker places the op.
						op.Unknown = true
						assumed = true
					case cerr == nil:
						op.Output = string(stored)
					}
					applied := record(op, cerr, invoke) || assumed
					switch {
					case applied:
						holding[lk] = expect == 0
					case cerr == nil && !swapped && expect != 0:
						holding[lk] = false
					}
				}
				time.Sleep(o.Pause)
			}
		}(c)
	}
	wg.Wait()

	histMu.Lock()
	err = harnessErr
	histMu.Unlock()
	if err != nil {
		return nil, err
	}

	// Let the schedule's last window elapse, then wait for the autopilot
	// to finish repairing what the nemesis broke.
	lastAt := time.Duration(0)
	for _, st := range schedule {
		if end := time.Duration(float64(st.At+st.For) * o.TimeScale); end > lastAt {
			lastAt = end
		}
	}
	if since := rc.mon.Now() - schedStart; since < lastAt {
		time.Sleep(lastAt - since)
	}
	if sc.failover {
		deadline := time.Now().Add(o.RepairWait)
		for time.Now().Before(deadline) {
			done := false
			for _, ev := range rc.pilot.History() {
				if ev.Action == controller.ActionRecoverDone {
					done = true
				}
			}
			if done {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Quiesce: stop injecting (pipes become pass-through), then give the
	// watch subscriber one clean resync pass and check convergence
	// against direct linearizable reads.
	rc.inj.Stop()
	sub.MarkDirty()
	time.Sleep(50 * time.Millisecond)
	res.WatchConverged = true
	for _, k := range watchKeys {
		_, ver, rerr := rc.clients[0].Read(k)
		if rerr != nil {
			res.WatchConverged = false
			continue
		}
		deadline := time.Now().Add(2 * time.Second)
		for {
			present, sver, watched := sub.State(k)
			if watched && present && !sver.Less(ver) {
				break
			}
			if time.Now().After(deadline) {
				res.WatchConverged = false
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	close(watchStop)
	wconn.Close()
	sub.Close()
	watchWG.Wait()
	res.WatchEvents = watchEvents
	res.WatchStats = sub.Stats()

	// Autopilot bookkeeping.
	res.Repairs = rc.pilot.History()
	res.Health = rc.det.Snapshot(rc.mon.Now())
	faultMon := schedStart + time.Duration(float64(sc.faultAt)*o.TimeScale)
	for _, ev := range res.Repairs {
		switch ev.Action {
		case controller.ActionFailover:
			res.Failovers++
			if !sc.failover || ev.Switch != tg.fail {
				res.FalseEvictions++
			} else if res.DetectLatency == 0 {
				res.DetectLatency = ev.At - faultMon
			}
		case controller.ActionDemote:
			res.Demotions++
		}
	}
	if sc.failover {
		res.ChainsRepaired = true
		for _, rt := range rc.Controller().Routes() {
			if len(rt.Hops) != 3 {
				res.ChainsRepaired = false
			}
			for _, hop := range rt.Hops {
				if hop == tg.fail {
					res.ChainsRepaired = false
				}
			}
		}
	}

	res.Ops = len(history)
	for _, op := range history {
		if op.Unknown {
			res.Unknowns++
		}
	}
	for _, cl := range rc.clients {
		st := cl.TransportStats()
		res.Timeouts += st.Timeouts
		res.Sent += st.Sent
		res.Retries += st.Retries
	}
	res.Inj = rc.inj.Stats()
	res.NemesisLog = rc.inj.Log()
	res.History = history
	res.Lin = lincheck.Check(history, initial)

	h := sha256.New()
	for _, op := range history {
		fmt.Fprint(h, formatOp(op))
	}
	res.HistoryDigest = fmt.Sprintf("%x", h.Sum(nil))[:16]
	return res, nil
}

// Format renders the result for benchrunner output.
func (r *RealChaosResult) Format() string {
	s := fmt.Sprintf("realchaos [%s] seed=%d on live UDP\n%s\n", r.Schedule, r.Seed, ChaosScheduleDoc(r.Schedule))
	for _, l := range r.NemesisLog {
		s += "  " + l + "\n"
	}
	s += fmt.Sprintf("history: %d ops (%d unknown, %d timeouts); %d datagrams sent, %d retries\n",
		r.Ops, r.Unknowns, r.Timeouts, r.Sent, r.Retries)
	s += fmt.Sprintf("nemesis: %d chaos drops, %d burst drops, %d partition drops, %d gray drops, "+
		"%d fail drops, %d delayed, %d dups, %d reordered, %d gray stalls\n",
		r.Inj.ChaosDrops, r.Inj.BurstDrops, r.Inj.PartitionDrops, r.Inj.GrayDrops,
		r.Inj.FailDrops, r.Inj.Delayed, r.Inj.DupCopies, r.Inj.Reordered, r.Inj.GrayStalls)
	s += fmt.Sprintf("watch: %d events, converged: %v (stats %+v)\n", r.WatchEvents, r.WatchConverged, r.WatchStats)
	s += fmt.Sprintf("autopilot: %d failovers, %d demotions, %d false evictions", r.Failovers, r.Demotions, r.FalseEvictions)
	if r.FailStopInjected {
		s += fmt.Sprintf("; detection %v, chains repaired: %v", r.DetectLatency, r.ChainsRepaired)
	}
	s += "\n"
	for _, ev := range r.Repairs {
		s += "  " + ev.String() + "\n"
	}
	if r.Lin.OK {
		s += fmt.Sprintf("linearizable: YES (%d ops checked)\n", r.Lin.OpsChecked)
	} else {
		s += fmt.Sprintf("linearizable: NO — key %s: %s\n", r.Lin.Key, r.Lin.Reason)
	}
	s += fmt.Sprintf("fault fingerprint: %s  history digest: %s\n", r.FaultFingerprint, r.HistoryDigest)
	return s
}

// DumpHistory renders the recorded history one operation per line — the
// artifact a failing run uploads so (schedule, seed) reproduces locally.
func (r *RealChaosResult) DumpHistory() string {
	s := fmt.Sprintf("# realchaos schedule=%s seed=%d ops=%d lin=%v\n", r.Schedule, r.Seed, r.Ops, r.Lin.OK)
	for _, op := range r.History {
		s += formatOp(op)
	}
	return s
}
