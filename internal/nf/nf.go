// Package nf implements the network functions the paper's middleboxes
// offer (§IV-A): firewalling (FW), intrusion detection (IDS), web
// proxying with caching (WP), and traffic measurement (TM). Each is a
// real, stateful implementation — verdicts, alerts, an LRU cache, and
// exact plus sketch-based counters — not a pass-through stub, so examples
// and tests can observe genuine middlebox behaviour.
//
// The enforcement layer steers packets to middleboxes; middleboxes invoke
// their Function's Process on each packet and act on the verdict.
package nf

import (
	"fmt"

	"sdme/internal/packet"
	"sdme/internal/policy"
)

// Verdict is a function's decision about one packet.
type Verdict int

const (
	// VerdictPass continues the packet along its enforcement chain.
	VerdictPass Verdict = iota + 1
	// VerdictDrop discards the packet (firewall deny).
	VerdictDrop
	// VerdictServe answers the packet locally (web-proxy cache hit); the
	// packet does not continue down the chain.
	VerdictServe
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictPass:
		return "pass"
	case VerdictDrop:
		return "drop"
	case VerdictServe:
		return "serve"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Function is one network function instance, owned by a single middlebox.
// Process is safe for concurrent use: the live runtime's worker pool
// shares one instance across its workers, and flow-affinity dispatch does
// not serialize it, because one function serves every flow its middlebox
// carries. Each implementation guards its state with its own mutex.
type Function interface {
	// Type identifies which policy action this function implements.
	Type() policy.FuncType
	// Process inspects/transforms one packet at virtual time now and
	// returns a verdict. The packet is the decapsulated original.
	Process(pkt *packet.Packet, now int64) Verdict
	// Processed returns how many packets this function has handled.
	Processed() int64
}

// New constructs a default instance of the given function type; it is the
// factory the deployment layer uses when materializing middleboxes.
func New(t policy.FuncType) (Function, error) {
	switch t {
	case policy.FuncFW:
		return NewFirewall(nil), nil
	case policy.FuncIDS:
		return NewIDS(DefaultSignatures()), nil
	case policy.FuncWP:
		return NewWebProxy(DefaultCacheCapacity), nil
	case policy.FuncTM:
		return NewTrafficMeasure(), nil
	default:
		return nil, fmt.Errorf("nf: no implementation for function %v", t)
	}
}
