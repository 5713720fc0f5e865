// Package netchain is a software reproduction of NetChain (NSDI 2018):
// scale-free sub-RTT coordination — a strongly-consistent, fault-tolerant
// key-value store that lives in the network dataplane, replicated with a
// chain-replication variant (Vertical Paxos steady state) and repaired by
// a controller (fast failover + two-phase failure recovery).
//
// Two substrates run the same protocol code:
//
//   - a real deployment: switch dataplanes behind UDP sockets, a
//     controller speaking net/rpc to per-switch agents, clients with
//     timeout-based retries — see StartLocalCluster;
//   - a deterministic discrete-event simulation of the paper's testbed
//     (four switches, four servers) used by the evaluation harness — see
//     NewSimCluster and the bench suite, which regenerates every table
//     and figure of the paper (EXPERIMENTS.md).
package netchain

import (
	"netchain/internal/kv"
	"netchain/internal/livecluster"
	"netchain/internal/query"
)

// Key is a fixed 16-byte key (§7).
type Key = kv.Key

// Value is a bounded value (≤128 B at line rate in the paper's prototype).
type Value = kv.Value

// Version is the (session, sequence) write-ordering pair (§4.3, §5.2).
type Version = kv.Version

// Sentinel errors returned by clients.
var (
	ErrNotFound    = kv.ErrNotFound
	ErrCASFail     = kv.ErrCASFail
	ErrTimeout     = kv.ErrTimeout
	ErrUnavailable = kv.ErrUnavailable
)

// KeyFromString builds a key from text (truncated/padded to 16 bytes).
func KeyFromString(s string) Key { return kv.KeyFromString(s) }

// KeyFromUint64 builds a key from an integer (synthetic workloads).
func KeyFromUint64(v uint64) Key { return kv.KeyFromUint64(v) }

// ClusterConfig sizes a local real-network cluster.
type ClusterConfig = livecluster.Config

// Cluster is a real NetChain deployment on loopback: every switch is a
// dataplane goroutine behind its own UDP socket, and the controller drives
// them through net/rpc agents exactly as a multi-process deployment would.
type Cluster = livecluster.Cluster

// Client is a blocking NetChain client: the agent of §3 translating API
// calls to in-network queries with retries.
type Client = livecluster.Client

// StartLocalCluster boots a cluster. The first cfg.Replicas switches are
// ring members; the rest are spares available to Recover.
func StartLocalCluster(cfg ClusterConfig) (*Cluster, error) { return livecluster.Start(cfg) }

// LockValue builds a lock record: owner id plus payload.
func LockValue(owner uint64, payload []byte) Value { return query.OwnerValue(owner, payload) }

// LockOwner extracts the owner of a lock record (0 = free).
func LockOwner(v Value) uint64 { return query.Owner(v) }
