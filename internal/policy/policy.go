// Package policy implements the paper's network-wide policies (§II): a
// policy pairs a traffic descriptor — packet-header fields with wildcards
// — with an ordered list of network-function actions. Matching follows
// first-match semantics over an ordered policy list.
//
// Two classifier implementations are provided: a linear scan (the obvious
// baseline, always correct) and a hierarchical source/destination trie
// (the software lookup structure §III-D alludes to). The flow hash table
// that makes per-packet classification rare lives in internal/flowtable.
package policy

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"

	"sdme/internal/netaddr"
)

// FuncType identifies a network function that middleboxes implement: one
// of the four in the paper's evaluation.
type FuncType int

// The network functions (§IV-A).
const (
	FuncFW  FuncType = iota + 1 // firewalling
	FuncIDS                     // intrusion detection
	FuncWP                      // web proxying
	FuncTM                      // traffic measurement
)

// funcNames indexes FuncType-1.
var funcNames = []string{"FW", "IDS", "WP", "TM"}

// String renders the function name.
func (f FuncType) String() string {
	if i := int(f) - 1; i >= 0 && i < len(funcNames) {
		return funcNames[i]
	}
	return fmt.Sprintf("func(%d)", int(f))
}

// ParseFunc resolves a function name ("FW", "IDS", ...), case-insensitive.
func ParseFunc(s string) (FuncType, error) {
	for i, n := range funcNames {
		if strings.EqualFold(n, s) {
			return FuncType(i + 1), nil
		}
	}
	return 0, fmt.Errorf("policy: unknown function %q", s)
}

// CheckActions is the one rule a list of function codes obeys wherever it
// enters a node, from the wire or from the controller: every code names
// one of the four functions and none repeats. The dataplane infers a
// packet's position in its chain from which of its functions appears in
// the list, which requires uniqueness. A single code is checked as a list
// of one.
func CheckActions[F ~int](codes []F) error {
	var seen [FuncTM + 1]bool
	for _, c := range codes {
		if c < F(FuncFW) || c > F(FuncTM) {
			return fmt.Errorf("policy: function code %d is not one of %v", int(c), funcNames)
		}
		if seen[c] {
			return fmt.Errorf("policy: action list repeats function %v", FuncType(c))
		}
		seen[c] = true
	}
	return nil
}

// ActionList is the ordered sequence of functions a policy applies. An
// empty list means "permit": forward with no middlebox processing.
type ActionList []FuncType

// ParseActions parses "FW,IDS,WP" (or "permit" / "" for the empty list).
func ParseActions(s string) (ActionList, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "permit") {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make(ActionList, 0, len(parts))
	for _, p := range parts {
		f, err := ParseFunc(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// IsPermit reports whether the list is empty (no processing required).
func (a ActionList) IsPermit() bool { return len(a) == 0 }

// First returns the first function; ok is false for a permit list.
func (a ActionList) First() (FuncType, bool) {
	if len(a) == 0 {
		return 0, false
	}
	return a[0], true
}

// Last returns the last function; ok is false for a permit list.
func (a ActionList) Last() (FuncType, bool) {
	if len(a) == 0 {
		return 0, false
	}
	return a[len(a)-1], true
}

// Next returns the function following the first occurrence of e; ok is
// false when e is last or absent.
func (a ActionList) Next(e FuncType) (FuncType, bool) {
	for i, f := range a {
		if f == e {
			if i+1 < len(a) {
				return a[i+1], true
			}
			return 0, false
		}
	}
	return 0, false
}

// Index returns the position of e in the list, or -1.
func (a ActionList) Index(e FuncType) int {
	for i, f := range a {
		if f == e {
			return i
		}
	}
	return -1
}

// Contains reports whether e appears in the list.
func (a ActionList) Contains(e FuncType) bool { return a.Index(e) >= 0 }

// ContainsAny reports whether any of the given functions appears.
func (a ActionList) ContainsAny(fs []FuncType) bool {
	for _, f := range fs {
		if a.Contains(f) {
			return true
		}
	}
	return false
}

// Equal reports element-wise equality.
func (a ActionList) Equal(b ActionList) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AdjacentPairs returns the (e, e') pairs of consecutive functions; this
// is the I_p(e, e') indicator domain of the paper's LP formulations.
func (a ActionList) AdjacentPairs() [][2]FuncType {
	if len(a) < 2 {
		return nil
	}
	out := make([][2]FuncType, 0, len(a)-1)
	for i := 0; i+1 < len(a); i++ {
		out = append(out, [2]FuncType{a[i], a[i+1]})
	}
	return out
}

// String renders "FW -> IDS -> WP" or "permit".
func (a ActionList) String() string {
	if a.IsPermit() {
		return "permit"
	}
	names := make([]string, len(a))
	for i, f := range a {
		names[i] = f.String()
	}
	return strings.Join(names, " -> ")
}

// Descriptor is a policy's traffic descriptor: header fields with
// wildcards (§II, Table I of the paper).
type Descriptor struct {
	Src, Dst         netaddr.Prefix
	SrcPort, DstPort netaddr.PortRange
	Proto            uint8 // netaddr.ProtoAny matches everything
}

// NewDescriptor returns a fully wildcarded descriptor; adjust fields from
// there.
func NewDescriptor() Descriptor {
	return Descriptor{
		Src: netaddr.AnyPrefix(), Dst: netaddr.AnyPrefix(),
		SrcPort: netaddr.AnyPort(), DstPort: netaddr.AnyPort(),
		Proto: netaddr.ProtoAny,
	}
}

// Matches reports whether the 5-tuple falls inside the descriptor.
func (d Descriptor) Matches(ft netaddr.FiveTuple) bool {
	return d.Src.Contains(ft.Src) &&
		d.Dst.Contains(ft.Dst) &&
		d.SrcPort.Contains(ft.SrcPort) &&
		d.DstPort.Contains(ft.DstPort) &&
		(d.Proto == netaddr.ProtoAny || d.Proto == ft.Proto)
}

// SrcOverlaps reports whether any source address in subnet could match
// the descriptor — the test the controller uses to compute a proxy's
// relevant policy set P_x (§III-B).
func (d Descriptor) SrcOverlaps(subnet netaddr.Prefix) bool {
	return d.Src.Overlaps(subnet)
}

// String renders the descriptor compactly.
func (d Descriptor) String() string {
	src, dst := d.Src.String(), d.Dst.String()
	if d.Src.IsAny() {
		src = "*"
	}
	if d.Dst.IsAny() {
		dst = "*"
	}
	return fmt.Sprintf("%s:%s -> %s:%s proto=%s",
		src, d.SrcPort, dst, d.DstPort, netaddr.ProtoString(d.Proto))
}

// Policy is one network-wide policy: descriptor plus ordered action list.
// ID is unique across the network; Prio is the position in the global
// ordered list (lower matches first).
//
// A Policy is never mutated in place once a Table, a plan or a node
// configuration holds it: an edit (Table.Update) allocates a fresh value.
// Plans and configurations share the pointers, so pointer equality means
// "same rule" and the controller's diff skips the hash for it.
type Policy struct {
	ID      int
	Prio    int
	Desc    Descriptor
	Actions ActionList
}

// String renders the policy for logs and tools.
func (p *Policy) String() string {
	return fmt.Sprintf("policy#%d[%s: %s]", p.ID, p.Desc, p.Actions)
}

// Hash is the rule's identity hash: FNV-1a over ID, priority, descriptor
// and action list, each a fixed-width field. Two Policy values hash equal
// iff they would install identically, so plan compilation can detect edits
// without field-by-field comparison and without trusting pointer identity
// across table edits. The value is compared in memory only and never
// stored, so its encoding may change between versions.
func (p *Policy) Hash() uint64 {
	d := &p.Desc
	b := make([]byte, 0, 64)
	b = binary.BigEndian.AppendUint64(b, uint64(p.ID))
	b = binary.BigEndian.AppendUint64(b, uint64(p.Prio))
	b = binary.BigEndian.AppendUint32(b, uint32(d.Src.Addr()))
	b = binary.BigEndian.AppendUint32(b, uint32(d.Dst.Addr()))
	b = append(b, byte(d.Src.Bits()), byte(d.Dst.Bits()), d.Proto)
	for _, port := range [...]uint16{d.SrcPort.Lo, d.SrcPort.Hi, d.DstPort.Lo, d.DstPort.Hi} {
		b = binary.BigEndian.AppendUint16(b, port)
	}
	for _, f := range p.Actions {
		b = binary.BigEndian.AppendUint32(b, uint32(f))
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Classifier finds the first matching policy for a flow.
type Classifier interface {
	// Match returns the first (lowest Prio) policy matching ft, or nil.
	Match(ft netaddr.FiveTuple) *Policy
	// Len returns the number of policies installed.
	Len() int
}

// trieThreshold is the table size from which NewClassifier builds the trie.
// It is the measured crossover, not a tunable: a scan costs ~3 ns per rule
// it passes, a trie lookup ~100 ns almost regardless of size.
// BenchmarkTrieMatch (scan/trie, ns per match, campus-shaped rules, one
// probe in five a miss): 47/95 at 8 rules, 72/102 at 16, 118/113 at 32,
// 205/121 at 64, 387/137 at 128. The benchmark's ladder rungs, on its own
// key streams: 98/130 at 30 rules (steady_chain), 943/212 at 300
// (flow_churn); a line through each pair crosses at 41. Between the two
// estimates (32 and 41) the classifiers differ by under 10 %, so the exact
// value matters little; what matters is that steady_chain/label_chain
// nodes (10–30 rules) stay on the scan and flow_churn nodes (100–300) get
// the trie.
const trieThreshold = 40

// NewClassifier returns the classifier for a node's policy subset (in
// priority order): the linear Table below trieThreshold rules, the trie at
// or above it. Both return the same match for every flow.
func NewClassifier(policies []*Policy) Classifier {
	if len(policies) >= trieThreshold {
		return NewTrieClassifier(policies)
	}
	t := NewTable()
	for _, p := range policies {
		t.AddPolicy(p)
	}
	return t
}

// Table is the ordered network-wide policy list with linear first-match
// lookup. It preserves insertion order as priority and is the reference
// implementation other classifiers are tested against.
type Table struct {
	policies []*Policy
	nextID   int
	// nextPrio is a monotonic priority counter: priorities of removed
	// policies are never reused, so a policy added after a removal cannot
	// collide with a survivor and (Prio, ID) stays a total order across
	// any edit history.
	nextPrio int
}

var _ Classifier = (*Table)(nil)

// NewTable returns an empty policy table.
func NewTable() *Table { return &Table{} }

// Add appends a policy, assigning ID and priority, and returns it.
func (t *Table) Add(d Descriptor, a ActionList) *Policy {
	p := &Policy{ID: t.nextID, Prio: t.nextPrio, Desc: d, Actions: a}
	t.nextID++
	t.nextPrio++
	t.policies = append(t.policies, p)
	return p
}

// AddPolicy appends an existing policy object (keeping its ID, e.g. when a
// node installs the subset P_x distributed by the controller) and assigns
// only its local priority.
func (t *Table) AddPolicy(p *Policy) {
	t.policies = append(t.policies, p)
	if p.ID >= t.nextID {
		t.nextID = p.ID + 1
	}
	if p.Prio >= t.nextPrio {
		t.nextPrio = p.Prio + 1
	}
}

// Get returns the policy with the given ID, or nil.
func (t *Table) Get(id int) *Policy {
	for _, p := range t.policies {
		if p.ID == id {
			return p
		}
	}
	return nil
}

// Remove deletes the policy with the given ID, preserving the relative
// order (and priorities) of the survivors. It reports whether a policy
// was removed.
func (t *Table) Remove(id int) bool {
	for i, p := range t.policies {
		if p.ID == id {
			t.policies = append(t.policies[:i], t.policies[i+1:]...)
			return true
		}
	}
	return false
}

// Update replaces the descriptor and actions of the policy with the given
// ID, keeping its ID and priority slot. The edit allocates a fresh Policy
// value so configurations holding the old pointer are not mutated under
// them; the new value is returned (nil if the ID is unknown).
func (t *Table) Update(id int, d Descriptor, a ActionList) *Policy {
	for i, p := range t.policies {
		if p.ID == id {
			np := &Policy{ID: p.ID, Prio: p.Prio, Desc: d, Actions: a}
			t.policies[i] = np
			return np
		}
	}
	return nil
}

// Match implements Classifier by linear first-match scan.
func (t *Table) Match(ft netaddr.FiveTuple) *Policy {
	for _, p := range t.policies {
		if p.Desc.Matches(ft) {
			return p
		}
	}
	return nil
}

// Len implements Classifier.
func (t *Table) Len() int { return len(t.policies) }

// All returns the policies in priority order. The slice is owned by the
// table; callers must not mutate it.
func (t *Table) All() []*Policy { return t.policies }

// SrcRelevant returns the policies whose descriptors can match a source
// address in subnet — the proxy-side P_x of §III-B.
func (t *Table) SrcRelevant(subnet netaddr.Prefix) []*Policy {
	var out []*Policy
	for _, p := range t.policies {
		if p.Desc.SrcOverlaps(subnet) {
			out = append(out, p)
		}
	}
	return out
}

// FuncRelevant returns the policies whose action lists contain any of the
// given functions — the middlebox-side P_x of §III-B.
func (t *Table) FuncRelevant(funcs []FuncType) []*Policy {
	var out []*Policy
	for _, p := range t.policies {
		if p.Actions.ContainsAny(funcs) {
			out = append(out, p)
		}
	}
	return out
}
