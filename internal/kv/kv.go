// Package kv defines the fundamental key-value types shared by every
// NetChain component: fixed-size keys, bounded values, operation codes and
// reply status codes. The sizes mirror the paper's prototype (§7): 16-byte
// keys and values bounded by the switch pipeline (k stages × n bytes).
package kv

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
)

// KeySize is the fixed key length in bytes (§7: "We use 16-byte keys").
const KeySize = 16

// MaxValueSize is the default value-size limit in bytes. The paper's
// prototype supports values up to 128 bytes at line rate (8 stages × 16
// bytes, §7/§8.1); larger values require recirculation (§6).
const MaxValueSize = 128

// Key is a fixed-length 16-byte key, comparable and usable as a map key.
type Key [KeySize]byte

// KeyFromString builds a Key from s, truncating or zero-padding to KeySize.
func KeyFromString(s string) Key {
	var k Key
	copy(k[:], s)
	return k
}

// KeyFromUint64 builds a Key whose first 8 bytes hold v big-endian. Handy
// for synthetic workloads that index keys numerically.
func KeyFromUint64(v uint64) Key {
	var k Key
	binary.BigEndian.PutUint64(k[:8], v)
	return k
}

// Uint64 returns the big-endian integer stored in the first 8 bytes.
func (k Key) Uint64() uint64 { return binary.BigEndian.Uint64(k[:8]) }

// HashBytes is FNV-1a over b — the dataplane's shared cheap hash
// (duplicate-detection value fingerprints, head stamp stripes).
func HashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// Hash returns FNV-1a over the key bytes.
func (k Key) Hash() uint64 { return HashBytes(k[:]) }

// String renders the key as printable text when possible, hex otherwise.
func (k Key) String() string {
	end := len(k)
	for end > 0 && k[end-1] == 0 {
		end--
	}
	trimmed := k[:end]
	for _, b := range trimmed {
		if b < 0x20 || b > 0x7e {
			return hex.EncodeToString(k[:])
		}
	}
	return string(trimmed)
}

// Value is a bounded-length byte string. A nil/empty Value written as a
// tombstone deletes the item from the reader's perspective.
type Value []byte

// Clone returns an independent copy of v.
func (v Value) Clone() Value {
	if v == nil {
		return nil
	}
	out := make(Value, len(v))
	copy(out, v)
	return out
}

// Op identifies a NetChain query or reply type (Fig. 2(b) OP field).
type Op uint8

const (
	// OpRead reads the value of an existing key; served by the chain tail.
	OpRead Op = iota + 1
	// OpWrite overwrites the value of an existing key; head → tail.
	OpWrite
	// OpInsert creates a key; requires the control plane to allocate the
	// slot in each chain switch before the value is written (§4.1).
	OpInsert
	// OpDelete invalidates a key in the data plane (tombstone write); the
	// control plane garbage-collects the slot afterwards (§4.1).
	OpDelete
	// OpCAS is a compare-and-swap used for exclusive locks (§8.5): the head
	// compares the stored owner with the expected owner and either
	// propagates an ordered write or fails the query immediately.
	OpCAS
	// OpReply is a response travelling back to the client.
	OpReply
	// OpSync is a controller-driven state transfer record used during
	// failure recovery (Algorithm 3 pre-sync / sync).
	OpSync
	// OpHeartbeat is a switch-agent liveness beacon addressed to the
	// health monitor, carrying data-plane quality signals in the value
	// field (internal/health.Payload). Switches never process heartbeats
	// locally — they only transit them toward the monitor.
	OpHeartbeat
	// OpEvent is a server-push watch notification: the tail's transport
	// agent publishes one event per applied mutation, the relay tier
	// stamps a per-group stream sequence into QueryID and fans it out to
	// subscribers. Switches only transit events; they never process them.
	OpEvent
	// OpWatch is a relay-tier subscription control message: subscribe /
	// renew / unsubscribe a client endpoint for a set of virtual groups.
	// The relay acks with the same op and an echoed QueryID nonce.
	OpWatch
)

var opNames = map[Op]string{
	OpRead:   "read",
	OpWrite:  "write",
	OpInsert: "insert",
	OpDelete: "delete",
	OpCAS:    "cas",
	OpReply:  "reply",
	OpSync:   "sync",

	OpHeartbeat: "heartbeat",
	OpEvent:     "event",
	OpWatch:     "watch",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined operation code.
func (o Op) Valid() bool { _, ok := opNames[o]; return ok }

// IsMutation reports whether o is a client write-family operation whose
// applied commit must produce a push-watch event. OpSync is excluded:
// state transfer re-applies versions that were already published when
// they first committed.
func (o Op) IsMutation() bool {
	switch o {
	case OpWrite, OpInsert, OpDelete, OpCAS:
		return true
	}
	return false
}

// Status is the result code carried in replies.
type Status uint8

const (
	// StatusOK means the query succeeded.
	StatusOK Status = iota
	// StatusNotFound means the key has no slot (or holds a tombstone).
	StatusNotFound
	// StatusCASFail means a compare-and-swap found a mismatching owner.
	StatusCASFail
	// StatusStale means a write carried an older (session, seq) than the
	// stored one and was dropped by a chain switch.
	StatusStale
	// StatusNoSpace means the switch had no free slot for an insert.
	StatusNoSpace
	// StatusBadRequest means the query was malformed.
	StatusBadRequest
	// StatusUnavailable means no chain replica could serve the query (all
	// replicas of the key's chain have failed).
	StatusUnavailable
)

var statusNames = map[Status]string{
	StatusOK:          "ok",
	StatusNotFound:    "not-found",
	StatusCASFail:     "cas-fail",
	StatusStale:       "stale",
	StatusNoSpace:     "no-space",
	StatusBadRequest:  "bad-request",
	StatusUnavailable: "unavailable",
}

func (s Status) String() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Err converts a failure status into a sentinel error; StatusOK yields nil.
func (s Status) Err() error {
	switch s {
	case StatusOK:
		return nil
	case StatusNotFound:
		return ErrNotFound
	case StatusCASFail:
		return ErrCASFail
	case StatusStale:
		return ErrStale
	case StatusNoSpace:
		return ErrNoSpace
	case StatusUnavailable:
		return ErrUnavailable
	default:
		return fmt.Errorf("netchain: %s", s)
	}
}

// Sentinel errors surfaced by the client API.
var (
	ErrNotFound    = errors.New("netchain: key not found")
	ErrCASFail     = errors.New("netchain: compare-and-swap failed")
	ErrStale       = errors.New("netchain: write superseded by newer version")
	ErrNoSpace     = errors.New("netchain: no free slot")
	ErrTimeout     = errors.New("netchain: query timed out")
	ErrTooLarge    = errors.New("netchain: value exceeds maximum size")
	ErrUnavailable = errors.New("netchain: no chain replica available")
)

// Version orders writes: the lexicographic (Session, Seq) pair of §4.3/§5.2.
// Session is bumped by the controller whenever a chain head is replaced so
// the new head's assignments dominate in-flight writes from the dead head;
// Seq increases monotonically per key at the head.
type Version struct {
	Session uint32
	Seq     uint64
}

// Less reports whether v orders strictly before w (lexicographic).
func (v Version) Less(w Version) bool {
	if v.Session != w.Session {
		return v.Session < w.Session
	}
	return v.Seq < w.Seq
}

// IsZero reports whether v is the zero version (fresh client write: the
// first chain switch that sees it acts as head and stamps it, Algorithm 1).
func (v Version) IsZero() bool { return v.Session == 0 && v.Seq == 0 }

func (v Version) String() string { return fmt.Sprintf("%d.%d", v.Session, v.Seq) }
