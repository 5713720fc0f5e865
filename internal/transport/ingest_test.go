package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"netchain/internal/core"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
)

// ingestSockets is the SO_REUSEPORT socket count the ordering tests run
// with: several ingest goroutines per node, so concurrent flows really
// are handled on different goroutines (on platforms without SO_REUSEPORT
// the node falls back to one socket and the tests still hold).
const ingestSockets = 4

// chainNodes boots one multi-socket switch node per address and installs
// keys on every one of them.
func chainNodes(t *testing.T, book *AddressBook, addrs []packet.Addr, keys []kv.Key) []*SwitchNode {
	t.Helper()
	nodes := make([]*SwitchNode, len(addrs))
	for i, a := range addrs {
		sw, err := core.NewSwitch(a, pipeCfg())
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := sw.InstallKey(k); err != nil {
				t.Fatal(err)
			}
		}
		node, err := NewSwitchNode(sw, book, "127.0.0.1:0", WithIngestSockets(ingestSockets))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		nodes[i] = node
	}
	return nodes
}

// chainClients opens n windowed clients, each its own socket (its own
// flow), all routed over the chain hops.
func chainClients(t *testing.T, book *AddressBook, hops []packet.Addr, n, window int, timeout time.Duration) []*Ops {
	t.Helper()
	rt := query.Route{Group: 0, Hops: hops}
	ops := make([]*Ops, n)
	for i := range ops {
		cl, err := NewClient(book, ClientConfig{
			Addr:    packet.AddrFrom4(10, 1, 0, byte(i+1)),
			Gateway: hops[0],
			Bind:    "127.0.0.1:0",
			Window:  window,
			Timeout: timeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		ops[i] = &Ops{Client: cl, Dir: func(kv.Key) (query.Route, error) { return rt, nil }}
	}
	return ops
}

// singleNode boots one multi-socket switch with a direct (chainless)
// route to itself, plus one windowed client.
func singleNode(t *testing.T, window int) (*SwitchNode, *Ops) {
	t.Helper()
	book := NewAddressBook()
	head := []packet.Addr{packet.AddrFrom4(10, 0, 0, 1)}
	return chainNodes(t, book, head, nil)[0], chainClients(t, book, head, 1, window, 0)[0]
}

func orderedKeys(prefix string, n int) []kv.Key {
	keys := make([]kv.Key, n)
	for i := range keys {
		keys[i] = kv.KeyFromString(fmt.Sprintf("%s-%d", prefix, i))
	}
	return keys
}

// pipelineWrites issues every client's writes asynchronously — each
// client in its own goroutine, in its own order key by key — and waits
// for all of them, returning the first error. Client c's i-th write to
// key k carries "v-c-k-i".
func pipelineWrites(ops []*Ops, keys []kv.Key, writesPerKey int) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(ops)*len(keys)*writesPerKey)
	for c, o := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= writesPerKey; i++ {
				for k, key := range keys {
					wg.Add(1)
					o.WriteAsync(key, kv.Value(fmt.Sprintf("v-%d-%d-%d", c, k, i)), func(_ kv.Version, err error) {
						if err != nil {
							errs <- err
						}
						wg.Done()
					})
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// someClientsLast reports whether val is the last write one of clients
// issued to key k in pipelineWrites.
func someClientsLast(val kv.Value, clients, k, writesPerKey int) bool {
	for c := 0; c < clients; c++ {
		if string(val) == fmt.Sprintf("v-%d-%d-%d", c, k, writesPerKey) {
			return true
		}
	}
	return false
}

// TestIngestPoolPerKeyOrdering floods a multi-socket node from several
// client sockets at once, all pipelining writes to the same handful of
// keys. The node's ingest goroutines stamp concurrently, so the clients'
// writes interleave in any order — but every write must be applied
// exactly once (dense versions), and because each client's flow is read
// in order by one goroutine, the value stamped last for a key must be
// the last write some client issued for it. Once the load stops, the
// node's backlog signal must fall back to zero.
func TestIngestPoolPerKeyOrdering(t *testing.T) {
	book := NewAddressBook()
	head := packet.AddrFrom4(10, 0, 0, 1)
	keys := orderedKeys("ordered", 8)
	node := chainNodes(t, book, []packet.Addr{head}, keys)[0]
	ops := chainClients(t, book, []packet.Addr{head}, 4, 32, 0)
	const writesPerKey = 30
	if err := pipelineWrites(ops, keys, writesPerKey); err != nil {
		t.Fatal(err)
	}
	for k, key := range keys {
		val, ver, err := ops[0].Read(key)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(len(ops) * writesPerKey); ver.Seq != want {
			t.Fatalf("key %d: final seq %d, want %d (lost or duplicated writes)", k, ver.Seq, want)
		}
		if !someClientsLast(val, len(ops), k, writesPerKey) {
			t.Fatalf("key %d: final value %q is no client's last write (a flow was reordered)", k, val)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for node.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle node reports queue depth %d, want 0", node.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIngestSocketsSerialWrites pins that a serial writer sees exactly
// the single-goroutine node's behavior on a multi-socket node, even while
// other clients load the node's other ingest goroutines.
func TestIngestSocketsSerialWrites(t *testing.T) {
	book := NewAddressBook()
	head := packet.AddrFrom4(10, 0, 0, 1)
	solo := kv.KeyFromString("solo")
	noise := orderedKeys("noise", 4)
	chainNodes(t, book, []packet.Addr{head}, append([]kv.Key{solo}, noise...))
	ops := chainClients(t, book, []packet.Addr{head}, 4, 16, 0)
	noiseErr := make(chan error, 1)
	go func() { noiseErr <- pipelineWrites(ops[1:], noise, 20) }()
	for i := 1; i <= 20; i++ {
		if _, err := ops[0].Write(solo, kv.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-noiseErr; err != nil {
		t.Fatal(err)
	}
	val, ver, err := ops[0].Read(solo)
	if err != nil {
		t.Fatal(err)
	}
	if ver.Seq != 20 || string(val) != "v20" {
		t.Fatalf("got %q @ %v, want v20 @ seq 20", val, ver)
	}
}

// TestChainPerFlowFIFO runs pipelined writes to a few hot keys down a
// head→mid→tail chain of multi-socket nodes. Nothing but per-flow FIFO
// keeps those writes in stamp order on each link — the kernel pins the
// client to one head socket and the upstream switch to one downstream
// socket, each read in order by one goroutine — so a replica that ever
// saw an older version after a newer one (WritesStale) or a client that
// had to retransmit means a hop reordered a flow.
func TestChainPerFlowFIFO(t *testing.T) { chainWritesInOrder(t, 1) }

// TestChainStampOrderAcrossSockets is the same check with several
// clients writing the same hot keys: their flows land on different head
// sockets, so consecutive versions of one key are stamped on different
// goroutines, and only the head's stamp stripes keep them in stamp order
// on the head→mid link.
func TestChainStampOrderAcrossSockets(t *testing.T) { chainWritesInOrder(t, 4) }

func chainWritesInOrder(t *testing.T, clients int) {
	book := NewAddressBook()
	hops := []packet.Addr{
		packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2), packet.AddrFrom4(10, 0, 0, 3),
	}
	keys := orderedKeys("hot", 4)
	nodes := chainNodes(t, book, hops, keys)
	// A generous timeout: a retransmit here must come from a lost or
	// reordered write, never from a slow race-detector run.
	ops := chainClients(t, book, hops, clients, 64, 2*time.Second)
	const writesPerKey = 100
	if err := pipelineWrites(ops, keys, writesPerKey); err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		if st := n.Switch().Stats(); st.WritesStale != 0 {
			t.Fatalf("replica %d: %d stale writes (a flow was reordered)", i, st.WritesStale)
		}
	}
	for c, o := range ops {
		if st := o.Client.Stats(); st.Retries != 0 {
			t.Fatalf("client %d retransmitted %d writes", c, st.Retries)
		}
	}
	for k, key := range keys {
		val, ver, err := ops[0].Read(key)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(clients * writesPerKey); ver.Seq != want {
			t.Fatalf("key %d: final seq %d, want %d", k, ver.Seq, want)
		}
		if !someClientsLast(val, len(ops), k, writesPerKey) {
			t.Fatalf("key %d: final value %q is no client's last write", k, val)
		}
	}
}
