package nf

import (
	"bytes"
	"slices"
	"sync"

	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/policy"
)

// Signature is one IDS content signature.
type Signature struct {
	Name    string
	Pattern []byte
}

// DefaultSignatures returns a small built-in signature set; deployments
// supply their own.
func DefaultSignatures() []Signature {
	return []Signature{
		{Name: "exploit-shellcode-nop-sled", Pattern: []byte{0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90}},
		{Name: "sql-injection-union", Pattern: []byte("' UNION SELECT ")},
		{Name: "path-traversal", Pattern: []byte("../../../../")},
		{Name: "test-malware-marker", Pattern: []byte("EICAR-SDME-TEST")},
	}
}

// Alert is one intrusion-detection event.
type Alert struct {
	Signature string
	Flow      netaddr.FiveTuple
	At        int64
}

// portScanThreshold is the number of distinct destination ports from one
// source after which the scan detector raises an alert.
const portScanThreshold = 32

// scanRecord is the port-scan detector's state for one source: the
// distinct destination ports it touched, in arrival order, until there
// are portScanThreshold of them. The alert fires as the last one is
// written; after that the record is full and never changes again.
type scanRecord struct {
	n     int32
	ports [portScanThreshold]uint16
}

// IDS is a passive intrusion detection system: it scans payloads against
// content signatures and tracks per-source destination-port fan-out to
// flag port scans. Being passive, it always passes packets; its output is
// the alert log.
type IDS struct {
	// mu makes Process safe under concurrent dataplane workers.
	mu         sync.Mutex
	signatures []Signature
	processed  int64
	alerts     []Alert
	// scans holds one record per source, by value, and scanOf each
	// source's place among them: a known source costs one map read, and
	// the GC scans neither.
	scans  []scanRecord
	scanOf map[netaddr.Addr]int32
	// MaxAlerts bounds the alert log; older alerts are discarded first.
	// At zero or below the IDS keeps no alerts.
	MaxAlerts int
}

var _ Function = (*IDS)(nil)

// NewIDS creates an IDS with the given signature set.
func NewIDS(sigs []Signature) *IDS {
	return &IDS{
		signatures: append([]Signature(nil), sigs...),
		scanOf:     make(map[netaddr.Addr]int32),
		MaxAlerts:  4096,
	}
}

// Type implements Function.
func (s *IDS) Type() policy.FuncType { return policy.FuncIDS }

// Process implements Function: scan, record, always pass.
func (s *IDS) Process(pkt *packet.Packet, now int64) Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.processed++
	ft := pkt.FiveTuple()

	if len(pkt.Payload) > 0 {
		for _, sig := range s.signatures {
			if contains(pkt.Payload, sig.Pattern) {
				s.raise(Alert{Signature: sig.Name, Flow: ft, At: now})
			}
		}
	}

	i, ok := s.scanOf[ft.Src]
	if !ok {
		i = int32(len(s.scans))
		s.scans = append(s.scans, scanRecord{})
		s.scanOf[ft.Src] = i
	}
	r := &s.scans[i]
	if r.n == portScanThreshold || slices.Contains(r.ports[:r.n], ft.DstPort) {
		return VerdictPass
	}
	r.ports[r.n] = ft.DstPort
	if r.n++; r.n == portScanThreshold {
		s.raise(Alert{Signature: "port-scan", Flow: ft, At: now})
	}
	return VerdictPass
}

// contains reports whether pat occurs in b, as bytes.Contains does. It
// looks for pat's first byte with IndexByte and compares only where that
// byte is. On amd64 bytes.Contains instead tries every offset of a
// haystack of up to 64 bytes, and most dataplane payloads are that short.
func contains(b, pat []byte) bool {
	if len(pat) == 0 {
		return true
	}
	for len(b) >= len(pat) {
		i := bytes.IndexByte(b[:len(b)-len(pat)+1], pat[0])
		if i < 0 {
			return false
		}
		if bytes.Equal(b[i:i+len(pat)], pat) {
			return true
		}
		b = b[i+1:]
	}
	return false
}

func (s *IDS) raise(a Alert) {
	if s.MaxAlerts <= 0 {
		return
	}
	if len(s.alerts) >= s.MaxAlerts {
		s.alerts = s.alerts[1:]
	}
	s.alerts = append(s.alerts, a)
}

// Processed implements Function.
func (s *IDS) Processed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.processed
}

// Alerts returns a copy of the alert log (oldest first).
func (s *IDS) Alerts() []Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Alert(nil), s.alerts...)
}
