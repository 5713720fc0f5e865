package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"netchain/internal/controller"
	"netchain/internal/core"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/relay"
	"netchain/internal/swsim"
	"netchain/internal/transport"
	"netchain/internal/watch"
)

const (
	replayOps     = 8192 // ops replayed per layer pass, split evenly over the callers' streams
	replayRepeats = 5    // measured passes per layer; ns/call is their median
	spanOps       = 1024 // ops whose layer calls are written out as spans
)

// rop is one replayed call with everything its layers need.
type rop struct {
	kind   opKind
	key    kv.Key
	val    kv.Value // write payload, or the CAS owner record
	expect uint64   // CAS: the owner the switch must find
	gw     packet.Addr
	rt     query.Route
}

func (o *rop) mutation() bool { return o.kind != opRead }

// replay times the benchmark's own calls into each layer's exported
// functions over the workload's seeded op stream, on in-process copies of
// the layers: three core switches with the cluster's addresses, a twin
// swsim pipeline, a relay sequencer and a watch engine. Read-path layers
// replay the stream's reads and write-path layers its mutations; when the
// stream has none of a kind, that layer replays every op's key as that
// kind, so every layer has a cost on every workload and the workload's
// calls per op decide its weight.
type replay struct {
	ops        []rop
	reads      []rop
	muts       []rop
	readStream bool // the stream's own calls are reads (else mutations)
	watched    bool
	ctl        *controller.Controller
	book       *transport.AddressBook
	sws        []*core.Switch
	pipe       *swsim.Pipeline
	loc        map[kv.Key]int
	group      map[kv.Key]uint16
	rel        *relay.Core
	seqRel     *relay.Core // sequences watch.apply's input untimed
	sub        *watch.Sub
	ep         query.Endpoint
	qid        uint64
	ver        uint64

	frames  []*packet.Frame
	targets []*core.Switch
	bufs    [][]byte
	events  []query.Event
	dec     packet.Frame
	scratch []byte
}

// newReplay rebuilds the op stream (each caller's first steps, in caller
// order) and the in-process layers. It needs the live controller for
// routes, so it runs before the cluster closes.
func newReplay(b *bench) (*replay, error) {
	ctl := b.cluster.Controller()
	r := &replay{
		ctl: ctl, book: transport.NewAddressBook(), watched: b.sp.watch,
		loc: map[kv.Key]int{}, group: map[kv.Key]uint16{},
		rel: relay.NewCore(), seqRel: relay.NewCore(),
		ep: query.Endpoint{Addr: packet.AddrFrom4(10, 1, 0, 200), Port: 4000},
	}
	route := func(k kv.Key) query.Route {
		rt := ctl.Route(k)
		r.group[k] = rt.Group
		return query.Route{Group: rt.Group, Hops: rt.Hops}
	}
	per := replayOps / len(b.callers)
	gw := b.cluster.SwitchAddr(b.gateway)
	for i, c := range b.callers {
		g := newGen(b.sp, b.seed, i)
		for j := 0; j < per; j++ {
			s := g.next()
			switch s.kind {
			case opRead:
				k := b.ks.data[s.key]
				r.ops = append(r.ops, rop{kind: opRead, key: k, gw: gw, rt: route(k)})
			case opWrite:
				k := b.ks.data[s.key]
				r.ops = append(r.ops, rop{kind: opWrite, key: k, val: b.ks.vals[s.key], gw: gw, rt: route(k)})
			case opAcquire:
				k := b.ks.locks[s.key]
				rt := route(k)
				r.ops = append(r.ops,
					rop{kind: opAcquire, key: k, val: query.OwnerValue(c.owner, nil), gw: gw, rt: rt},
					rop{kind: opRelease, key: k, val: query.OwnerValue(0, nil), expect: c.owner, gw: gw, rt: rt})
			}
		}
	}
	filler := make(kv.Value, valueBytes)
	for _, o := range r.ops {
		if o.mutation() {
			r.muts = append(r.muts, o)
		} else {
			r.reads = append(r.reads, o)
		}
	}
	r.readStream = len(r.reads) > 0
	if len(r.reads) == 0 {
		for _, o := range r.ops {
			r.reads = append(r.reads, rop{kind: opRead, key: o.key, gw: o.gw, rt: o.rt})
		}
	}
	if len(r.muts) == 0 {
		for _, o := range r.ops {
			r.muts = append(r.muts, rop{kind: opWrite, key: o.key, val: filler, gw: o.gw, rt: o.rt})
		}
	}
	for i := 0; i < b.cluster.Switches(); i++ {
		r.book.Set(b.cluster.SwitchAddr(i), &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 20000 + i})
	}
	cfg := swsim.Config{Stages: 8, SlotBytes: 16, SlotsPerStage: 4096, PPS: 1e9} // as StartLocalCluster
	seen := map[packet.Addr]bool{}
	var keys []kv.Key
	for _, o := range r.ops {
		for _, h := range o.rt.Hops {
			if !seen[h] {
				seen[h] = true
				sw, err := core.NewSwitch(h, cfg)
				if err != nil {
					return nil, err
				}
				r.sws = append(r.sws, sw)
			}
		}
		if _, ok := r.loc[o.key]; !ok {
			r.loc[o.key] = -1
			keys = append(keys, o.key)
		}
	}
	pipe, err := swsim.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	r.pipe = pipe
	for _, k := range keys {
		for _, sw := range r.sws {
			if err := sw.InstallKey(k); err != nil {
				return nil, err
			}
		}
		if r.loc[k], err = pipe.Alloc(k); err != nil {
			return nil, err
		}
	}
	r.sub = watch.NewSub(keys, func(k kv.Key) uint16 { return r.group[k] }, len(r.muts)+16)
	// Seed values so reads find data; lock keys start free.
	locks := map[kv.Key]bool{}
	for _, o := range r.ops {
		if o.kind == opAcquire {
			locks[o.key] = true
		}
	}
	seeded := map[kv.Key]bool{}
	for _, o := range r.ops {
		if seeded[o.key] {
			continue
		}
		seeded[o.key] = true
		seedOp := rop{kind: opWrite, key: o.key, val: filler, rt: o.rt}
		if locks[o.key] {
			seedOp.val = query.OwnerValue(0, nil)
		}
		f := r.build(&seedOp)
		r.chain(f)
		packet.PutFrame(f)
		if err := r.pipe.Commit(r.loc[o.key], filler, kv.Version{Session: 1, Seq: 1}, false); err != nil {
			return nil, err
		}
	}
	r.scratch = make([]byte, 0, 256)
	return r, nil
}

func (r *replay) switchAt(a packet.Addr) *core.Switch {
	for _, sw := range r.sws {
		if sw.Addr() == a {
			return sw
		}
	}
	return nil
}

func (r *replay) build(o *rop) *packet.Frame {
	r.qid++
	var f *packet.Frame
	var err error
	switch o.kind {
	case opRead:
		f, err = query.NewRead(r.ep, r.qid, o.rt, o.key)
	case opWrite:
		f, err = query.NewWrite(r.ep, r.qid, o.rt, o.key, o.val)
	default:
		f, err = query.NewCAS(r.ep, r.qid, o.rt, o.key, o.expect, o.val)
	}
	if err != nil {
		panic(err)
	}
	return f
}

// chain walks a write-family frame head to tail the way a switch node
// does: ProcessLocal, then the egress rule check, at every hop.
func (r *replay) chain(f *packet.Frame) {
	for hop := 0; hop <= packet.MaxChainHops && f.NC.Op != kv.OpReply; hop++ {
		sw := r.switchAt(f.IP.Dst)
		if sw == nil {
			return
		}
		if d, _ := sw.ProcessLocal(f); d == core.Drop {
			return
		}
		if sw.ApplyEgressRules(f) == core.Drop {
			return
		}
	}
}

func (r *replay) release() {
	for _, f := range r.frames {
		packet.PutFrame(f)
	}
	r.frames, r.targets = r.frames[:0], r.targets[:0]
}

func (r *replay) buildAll(ops []rop) {
	r.release()
	for i := range ops {
		f := r.build(&ops[i])
		r.frames = append(r.frames, f)
		r.targets = append(r.targets, r.switchAt(f.IP.Dst))
	}
	for len(r.bufs) < len(r.frames) {
		r.bufs = append(r.bufs, make([]byte, 0, 512))
	}
}

func (r *replay) encodeAll() {
	for i, f := range r.frames {
		r.bufs[i], _ = f.Serialize(r.bufs[i][:0])
	}
}

// freshEvents gives every mutation a version newer than any before, as
// the tail would stamp it.
func (r *replay) freshEvents() {
	r.events = r.events[:0]
	for _, o := range r.muts {
		r.ver++
		r.events = append(r.events, query.Event{Key: o.key, Value: o.val,
			Version: kv.Version{Session: 1, Seq: r.ver}, Group: r.group[o.key]})
	}
}

type layerCost struct{ ns, allocs float64 }

// timeLayer warms a pass up, then times replayRepeats passes with the
// collector off; allocs per call come from the first measured pass.
func timeLayer(prepare func(), run func() int) layerCost {
	prepare()
	run()
	var ns []float64
	var allocs float64
	for i := 0; i < replayRepeats; i++ {
		prepare()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		n := run()
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(el.Nanoseconds())/float64(n))
		if i == 0 {
			allocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
		}
	}
	return layerCost{median(ns), allocs}
}

var sinkRoute controller.Route

// measure times every layer pass.
func (r *replay) measure() map[string]layerCost {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	none := func() {}
	out := map[string]layerCost{}
	out["route.lookup"] = timeLayer(none, func() int {
		for i := range r.ops {
			sinkRoute = r.ctl.Route(r.ops[i].key)
		}
		return len(r.ops)
	})
	out["query.build"] = timeLayer(r.release, func() int {
		for i := range r.ops {
			r.frames = append(r.frames, r.build(&r.ops[i]))
		}
		return len(r.ops)
	})
	out["packet.encode"] = timeLayer(func() { r.buildAll(r.ops) }, func() int {
		for i, f := range r.frames {
			r.bufs[i], _ = f.Serialize(r.bufs[i][:0])
		}
		return len(r.frames)
	})
	out["packet.decode"] = timeLayer(func() { r.buildAll(r.ops); r.encodeAll() }, func() int {
		for i := range r.frames {
			if err := r.dec.Decode(r.bufs[i]); err != nil {
				panic(err)
			}
		}
		return len(r.frames)
	})
	out["addrbook.get"] = timeLayer(none, func() int {
		for i := range r.ops {
			r.book.Get(r.ops[i].gw)
		}
		return len(r.ops)
	})
	out["core.read"] = timeLayer(func() { r.buildAll(r.reads) }, func() int {
		for i, f := range r.frames {
			r.targets[i].ProcessLocal(f)
		}
		return len(r.frames)
	})
	out["core.write_chain"] = timeLayer(func() { r.buildAll(r.muts) }, func() int {
		for _, f := range r.frames {
			r.chain(f)
		}
		return len(r.frames)
	})
	out["query.parse"] = timeLayer(func() {
		// Replies of the stream's own kind, made by the core layer.
		if r.readStream {
			r.buildAll(r.reads)
			for i, f := range r.frames {
				r.targets[i].ProcessLocal(f)
			}
		} else {
			r.buildAll(r.muts)
			for _, f := range r.frames {
				r.chain(f)
			}
		}
	}, func() int {
		for _, f := range r.frames {
			if _, err := query.ParseReply(f); err != nil {
				panic(err)
			}
		}
		return len(r.frames)
	})
	r.release()
	out["swsim.read"] = timeLayer(none, func() int {
		for i := range r.reads {
			k := r.reads[i].key
			r.pipe.ReadLatestFor(k, r.loc[k], &r.scratch)
		}
		return len(r.reads)
	})
	out["swsim.commit"] = timeLayer(none, func() int {
		for i := range r.muts {
			m := &r.muts[i]
			r.ver++
			if err := r.pipe.Commit(r.loc[m.key], m.val, kv.Version{Session: 1, Seq: r.ver}, false); err != nil {
				panic(err)
			}
		}
		return len(r.muts)
	})
	out["relay.ingest"] = timeLayer(r.freshEvents, func() int {
		for i := range r.events {
			r.rel.Ingest(r.events[i])
		}
		return len(r.events)
	})
	ch := r.sub.Events()
	out["watch.apply"] = timeLayer(func() {
		for len(ch) > 0 {
			<-ch
		}
		r.freshEvents()
		for i := range r.events {
			r.events[i].StreamSeq, _ = r.seqRel.Ingest(r.events[i])
		}
	}, func() int {
		for i := range r.events {
			r.sub.ApplyEvent(r.events[i])
		}
		return len(r.events)
	})
	return out
}

// callsPerOp models how many times one live call of the stream enters
// each layer: the client builds, encodes, looks up its gateway and parses
// once; every switch the frame visits (a transit gateway plus the chain
// hops) decodes, looks up the next hop and encodes once; a mutation's
// tail also encodes one event, which the relay decodes and sequences and
// a watching subscriber decodes and applies.
func (r *replay) callsPerOp() map[string]float64 {
	c := map[string]float64{}
	for _, o := range r.ops {
		hops := len(o.rt.Hops)
		first, visits := o.rt.Hops[hops-1], 1
		if o.mutation() {
			first, visits = o.rt.Hops[0], hops
		}
		if o.gw != first {
			visits++
		}
		c["route.lookup"]++
		c["query.build"]++
		c["query.parse"]++
		c["packet.encode"] += float64(1 + visits)
		c["packet.decode"] += float64(1 + visits)
		c["addrbook.get"] += float64(1 + visits)
		if !o.mutation() {
			c["core.read_self"]++
			c["swsim.read"]++
			continue
		}
		c["core.write_chain_self"]++
		c["swsim.commit"] += float64(hops)
		c["relay.ingest"]++
		c["packet.encode"]++
		c["packet.decode"]++
		if r.watched {
			c["watch.apply"]++
			c["packet.decode"]++
		}
	}
	for k := range c {
		c[k] /= float64(len(r.ops))
	}
	return c
}

// span is one timed call. Op spans (parent 0) group one replayed or live
// call; layer spans name their op, or for swsim their core span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Src    string `json:"src"`
}

// spans walks the first n ops of the stream through their layers in the
// order a live call meets them, recording one span per call. swsim spans
// are timed on the twin pipeline right after their core span and name it
// as parent; core self time is the parent minus them.
func (r *replay) spans(n int, firstID int) []span {
	var out []span
	id := firstID
	base := time.Now()
	at := func() int64 { return time.Since(base).Nanoseconds() }
	rec := func(name string, parent int, fn func()) int {
		id++
		s := span{ID: id, Parent: parent, Name: name, Start: at(), Src: "replay"}
		fn()
		s.End = at()
		out = append(out, s)
		return s.ID
	}
	buf := make([]byte, 0, 512)
	for i := range r.ops[:min(n, len(r.ops))] {
		o := &r.ops[i]
		id++
		opID, opStart := id, at()
		var f *packet.Frame
		rec("route.lookup", opID, func() { sinkRoute = r.ctl.Route(o.key) })
		rec("query.build", opID, func() { f = r.build(o) })
		rec("packet.encode", opID, func() { buf, _ = f.Serialize(buf[:0]) })
		rec("addrbook.get", opID, func() { r.book.Get(o.gw) })
		rec("packet.decode", opID, func() { _ = r.dec.Decode(buf) })
		if o.mutation() {
			c := rec("core.write_chain", opID, func() { r.chain(f) })
			for range o.rt.Hops {
				r.ver++
				rec("swsim.commit", c, func() {
					_ = r.pipe.Commit(r.loc[o.key], o.val, kv.Version{Session: 1, Seq: r.ver}, false)
				})
			}
		} else {
			c := rec("core.read", opID, func() { r.switchAt(f.IP.Dst).ProcessLocal(f) })
			rec("swsim.read", c, func() { r.pipe.ReadLatestFor(o.key, r.loc[o.key], &r.scratch) })
		}
		rec("query.parse", opID, func() { _, _ = query.ParseReply(f) })
		if o.mutation() {
			r.ver++
			ev := query.Event{Key: o.key, Value: o.val, Version: kv.Version{Session: 1, Seq: r.ver}, Group: r.group[o.key]}
			rec("relay.ingest", opID, func() { ev.StreamSeq, _ = r.rel.Ingest(ev) })
			if r.watched {
				rec("watch.apply", opID, func() { r.sub.ApplyEvent(ev) })
			}
		}
		packet.PutFrame(f)
		out = append(out, span{ID: opID, Name: "op." + opNames[o.kind], Start: opStart, End: at(), Src: "replay"})
	}
	for len(r.sub.Events()) > 0 {
		<-r.sub.Events()
	}
	return out
}

// liveSpans turns a traced phase's per-caller op records into spans.
func liveSpans(p phase) []span {
	var out []span
	id := 0
	for c, recs := range p.spans {
		for _, s := range recs {
			id++
			out = append(out, span{ID: id, Name: fmt.Sprintf("op.%s.caller%d", opNames[s.kind], c),
				Start: s.start, End: s.end, Src: "live"})
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// udpFloorUs is the median round trip of a bare loopback datagram
// ping-pong between two sockets: the kernel's share of any live call.
func udpFloorUs(n int) (float64, error) {
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	a, err := net.ListenUDP("udp4", lo)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	echo, err := net.ListenUDP("udp4", lo)
	if err != nil {
		return 0, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		for {
			k, from, err := echo.ReadFromUDP(buf)
			if err != nil {
				return
			}
			_, _ = echo.WriteToUDP(buf[:k], from)
		}
	}()
	defer func() { echo.Close(); <-done }()
	to := echo.LocalAddr().(*net.UDPAddr)
	payload := make([]byte, 128)
	buf := make([]byte, 2048)
	if err := a.SetReadDeadline(time.Now().Add(20 * time.Second)); err != nil {
		return 0, err
	}
	var rtts []float64
	for i := 0; i < n+n/10; i++ {
		t0 := time.Now()
		if _, err := a.WriteToUDP(payload, to); err != nil {
			return 0, err
		}
		if _, _, err := a.ReadFromUDP(buf); err != nil {
			return 0, err
		}
		if i >= n/10 {
			rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return median(rtts), nil
}
