package controller

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sdme/internal/enforce"
	"sdme/internal/mgmt"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// Write-ahead journal — the controller's crash-recovery substrate. Every
// piece of mutable planning state (failed-set changes, solved weight
// plans, pushed epochs) is appended as a durable record BEFORE the
// corresponding plan reaches the nodes, so a controller killed at any
// point can be restarted, replay the journal, and resume at the next
// epoch with exactly the plan it last pushed. Static inputs (topology,
// placement, policy table, options) are recorded once as a fingerprint +
// policy dump so replay against a different deployment fails loudly
// instead of producing a silently divergent plan.
//
// Record format (DESIGN §10): each record is
//
//	uint32 BE payload length | uint32 BE CRC-32 (IEEE) of payload | payload
//
// where the payload is an mgmt wire envelope ({"t": kind, "data": ...})
// — the same codec the management channel uses, so the journal kinds
// below live in the same namespace as wire message types. A torn tail
// (partial record from a crash mid-append) is detected by the length /
// CRC check and tolerated: replay stops at the last intact record.

// Journal record kinds.
const (
	JournalDeploy   = "jrnl-deploy"
	JournalPolicies = "jrnl-policies"
	JournalFailed   = "jrnl-failed"
	JournalEpoch    = "jrnl-epoch"
	JournalWeights  = "jrnl-weights"
)

// DeployRecord fingerprints the static planning inputs.
type DeployRecord struct {
	Fingerprint uint64 `json:"fingerprint"`
	Nodes       int    `json:"nodes"`
	Middleboxes int    `json:"middleboxes"`
	Policies    int    `json:"policies"`
}

// PoliciesRecord dumps the policy table (audit trail; the fingerprint is
// what replay checks).
type PoliciesRecord struct {
	Policies []mgmt.PolicyDTO `json:"policies"`
}

// FailedRecord is the full failed-middlebox set after a MarkFailed (full
// set, not a delta, so replay is idempotent and order-tolerant).
type FailedRecord struct {
	Failed []int `json:"failed"`
}

// EpochRecord is the highest config epoch pushed so far. Term, when
// non-zero, names the election term the epoch was pushed under: a new
// leader resumes numbering past the max term-fenced high-water mark it
// replays, so post-takeover epochs never collide with the old leader's.
type EpochRecord struct {
	Epoch uint64 `json:"epoch"`
	Term  uint64 `json:"term,omitempty"`
}

// NodeWeights is one node's weight vectors within a WeightsRecord.
type NodeWeights struct {
	Node int              `json:"node"`
	Rows []mgmt.WeightDTO `json:"rows"`
}

// WeightsRecord is a solved LB weight plan.
type WeightsRecord struct {
	Lambda float64       `json:"lambda"`
	Nodes  []NodeWeights `json:"nodes"`
}

// Journal is the write-ahead log file, open for the life of its owner.
// A controller appends records to it (Append); a replica standing by
// keeps it a copy of its leader's by applying streamed frames at exact
// offsets (ApplyFrames) and cutting diverged tails (TruncateTo). Safe for
// concurrent use.
type Journal struct {
	*journalFile
	// closed marks this handle closed (guarded by mu): it never writes again.
	closed bool
}

// journalFile is the open file and its running totals, shared by the
// journal that opened it and the Writer handle it has lent out.
type journalFile struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// records counts the intact records on disk (guarded by mu).
	records int64
	// size is the intact journal length on disk — the offset space the
	// replication stream addresses. Atomic so catch-up reads (ReadChunk)
	// never contend with an Append blocked in its replication hook waiting
	// for those very reads to finish.
	size atomic.Int64
	// runCRC is the running CRC-32 over the whole intact journal,
	// advertised in leader heartbeats so standbys can detect a diverged
	// prefix (DESIGN §11).
	runCRC atomic.Uint32
	// onAppend, when set, streams each durable record to the replicator
	// under the append lock (offset is where the frame starts, prefixCRC
	// the running CRC-32 over the journal below it — standbys verify
	// their own journal against it before applying). A non-nil error
	// fails the Append: a record the quorum refused must not be treated
	// as logged.
	onAppend func(offset int64, prefixCRC uint32, frame []byte) error
	// writer is the handle Writer lent out and not yet closed: while it is
	// set, it alone may write.
	writer *Journal
}

// OpenJournal opens (creating if needed) a journal. Any torn tail (a
// partial record from a crash mid-append) is truncated away so new
// records extend the intact prefix rather than burying themselves behind
// garbage replay would stop at. The parent directory is fsynced after
// opening: without it a freshly created journal's directory entry can
// vanish on host crash even though the file's own appends were synced.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("controller: open journal: %w", err)
	}
	var st JournalState
	err = walkFrames(f, &st)
	if err == nil && st.Torn {
		if err = f.Truncate(st.Bytes); err != nil {
			err = fmt.Errorf("controller: truncate torn journal tail: %w", err)
		}
	}
	if err == nil {
		err = syncDir(path)
	}
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	j := &Journal{journalFile: &journalFile{f: f, path: path, records: int64(st.Records)}}
	j.size.Store(st.Bytes)
	j.runCRC.Store(st.crc)
	return j, nil
}

// walkFrames is the one reader of the record format: it folds every
// record of r into st, in order, and stops at the first frame that is not
// an intact, well-formed record. A frame cut short, of an impossible
// length, failing its CRC or not holding an envelope is a torn tail
// (st.Torn; a clean end of input is not). An envelope of an unknown kind
// or with a mis-shaped body is an error: CRC-valid bytes this code never
// wrote. Either way st.Records, st.Bytes and st.crc describe the prefix
// before it — so opening, replaying and a standby applying streamed
// frames accept exactly the same records.
func walkFrames(r io.Reader, st *JournalState) error {
	var hdr [8]byte
	var payload bytes.Buffer // grows with what r delivers, not with what a header claims
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			st.Torn = err != io.EOF
			return nil
		}
		st.Torn = true // until the frame proves whole
		n := binary.BigEndian.Uint32(hdr[:4])
		if n == 0 || n > 16<<20 {
			return nil
		}
		payload.Reset()
		if _, err := io.CopyN(&payload, r, int64(n)); err != nil || crc32.ChecksumIEEE(payload.Bytes()) != binary.BigEndian.Uint32(hdr[4:]) {
			return nil
		}
		env, err := mgmt.DecodeEnvelope(payload.Bytes())
		if err != nil {
			return nil
		}
		st.Torn = false
		if err := st.apply(env); err != nil {
			return fmt.Errorf("%w (record %d at offset %d)", err, st.Records, st.Bytes)
		}
		st.crc = crc32.Update(crc32.Update(st.crc, crc32.IEEETable, hdr[:]), crc32.IEEETable, payload.Bytes())
		st.Bytes += int64(8 + n)
		st.Records++
	}
}

// syncDir fsyncs a file's parent directory so the directory entry
// itself is durable (creation and truncation both rewrite it).
func syncDir(path string) error {
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("controller: open journal dir: %w", err)
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("controller: sync journal dir: %w", err)
	}
	return nil
}

// Writer lends the file to one handle: from now until that handle's
// Close it alone may Append, and ApplyFrames and TruncateTo refuse. A
// replica promoted to leader hands it to its controller and closes it at
// deposition — that is the fence: however long a stale controller keeps
// the handle, it never appends again, while j goes back to applying the
// new leader's frames to the same open file.
func (j *Journal) Writer() *Journal {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.writer != nil {
		j.writer.closed = true
	}
	j.writer = &Journal{journalFile: j.journalFile}
	return j.writer
}

// Close syncs and closes the journal file; on a Writer handle it gives
// the file back instead.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || j.f == nil {
		return nil
	}
	j.closed = true
	if j.writer == j {
		j.writer = nil
		return nil
	}
	//vet:ignore lockedblocking -- final fsync must serialize with in-flight writes on the same mutex
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// ErrJournalClosed refuses every use of a closed handle. On a lent writer
// it means the replica that lent it was voted out or stopped.
var ErrJournalClosed = errors.New("controller: journal closed")

// usableLocked refuses a closed handle, and any handle but the writer
// while the file is lent (the writer itself may only append).
func (j *Journal) usableLocked(appending bool) error {
	switch {
	case j.closed || j.f == nil:
		return ErrJournalClosed
	case j.writer != nil && !(appending && j.writer == j):
		return errors.New("controller: journal is lent to a writer")
	}
	return nil
}

// writeLocked makes buf — whole frames holding the given number of
// records — durable at the journal's end: one write, one fsync, then the
// totals move.
func (j *Journal) writeLocked(buf []byte, records int) error {
	size := j.size.Load()
	if _, err := j.f.WriteAt(buf, size); err != nil {
		return fmt.Errorf("controller: journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("controller: journal sync: %w", err)
	}
	j.records += int64(records)
	j.size.Store(size + int64(len(buf)))
	j.runCRC.Store(crc32.Update(j.runCRC.Load(), crc32.IEEETable, buf))
	return nil
}

// Append writes one record durably (single write + fsync before
// returning, so a record either exists whole or is a detectable torn
// tail).
func (j *Journal) Append(kind string, v interface{}) error {
	env, err := mgmt.EncodeEnvelope(kind, v)
	if err != nil {
		return err
	}
	buf := make([]byte, 8+len(env))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(env)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(env))
	copy(buf[8:], env)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.usableLocked(true); err != nil {
		return err
	}
	offset, prefixCRC := j.size.Load(), j.runCRC.Load()
	//vet:ignore lockedblocking -- WAL contract: record order IS the recovery order, so the write and the fsync that precedes the acknowledgement serialize through the mutex
	if err := j.writeLocked(buf, 1); err != nil {
		return err
	}
	if j.onAppend != nil {
		// Replication hook: the record is durable locally; it must now be
		// durable on a quorum before the append is acknowledged upstream.
		//vet:ignore lockedblocking -- WAL contract: quorum replication completes in record order, under the same append lock that defines that order
		if err := j.onAppend(offset, prefixCRC, buf); err != nil {
			return fmt.Errorf("controller: journal replicate: %w", err)
		}
	}
	return nil
}

// ApplyFrames appends a batch of frames streamed from the leader's
// journal and returns the journal length after the call. The batch is
// applied only when offset equals the current length (a duplicate or a
// gap otherwise — the caller decides), and of the batch only the prefix
// walkFrames accepts is written: never a record past a bad CRC, and never
// one replay would refuse.
func (j *Journal) ApplyFrames(offset int64, frames []byte) (int64, error) {
	var st JournalState
	refused := walkFrames(bytes.NewReader(frames), &st)
	if refused == nil && st.Torn {
		refused = fmt.Errorf("controller: frame batch torn or corrupt at %d", st.Bytes)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	size := j.size.Load()
	if err := j.usableLocked(false); err != nil {
		return size, err
	}
	if offset != size {
		return size, fmt.Errorf("controller: frame offset %d does not match journal length %d", offset, size)
	}
	if st.Bytes > 0 {
		//vet:ignore lockedblocking -- prefix invariant: streamed records land at exact offsets, serialized by the journal lock, and the ack reports them durable
		if err := j.writeLocked(frames[:st.Bytes], st.Records); err != nil {
			return size, err
		}
	}
	return j.size.Load(), refused
}

// TruncateTo discards everything at and past the given length — the
// resync path when the leader's journal is shorter (this replica holds an
// un-replicated tail from a dead leader) or diverged. The length comes off
// the wire, so the kept prefix is walked again: the cut lands on its last
// record boundary and the totals are the walk's.
func (j *Journal) TruncateTo(n int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.usableLocked(false); err != nil {
		return err
	}
	if size := j.size.Load(); n < 0 || n > size {
		return fmt.Errorf("controller: truncate to %d out of range [0,%d]", n, size)
	} else if n == size {
		return nil
	}
	var st JournalState
	//vet:ignore lockedblocking -- the rescan must complete before the next frame is judged against size/CRC
	if err := walkFrames(io.NewSectionReader(j.f, 0, n), &st); err != nil {
		return err
	}
	//vet:ignore lockedblocking -- resync truncation must serialize with frame applies
	if err := j.f.Truncate(st.Bytes); err != nil {
		return fmt.Errorf("controller: journal truncate: %w", err)
	}
	//vet:ignore lockedblocking -- durable before any post-resync frame is acked
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("controller: journal truncate sync: %w", err)
	}
	j.records = int64(st.Records)
	j.size.Store(st.Bytes)
	j.runCRC.Store(st.crc)
	return nil
}

// SetOnAppend installs the replication hook invoked (under the append
// lock, after the local fsync) with each record's starting offset, the
// running CRC-32 over the journal below that offset, and the raw framed
// bytes. nil detaches. The hook's error fails the Append.
func (j *Journal) SetOnAppend(fn func(offset int64, prefixCRC uint32, frame []byte) error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.onAppend = fn
}

// Records returns the number of intact records on disk.
func (j *Journal) Records() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Size returns the absolute intact journal length on disk — the offset
// space journal replication addresses.
func (j *Journal) Size() int64 { return j.size.Load() }

// CRC returns the running CRC-32 over the whole intact journal.
func (j *Journal) CRC() uint32 { return j.runCRC.Load() }

// ReadChunk reads up to max raw bytes of intact journal starting at
// offset — the leader side of standby catch-up. The returned slice ends
// on a record boundary by construction (offsets only ever come from
// Size / JournalAck values, which are sums of whole frames).
func (j *Journal) ReadChunk(offset int64, max int) ([]byte, error) {
	size, path := j.size.Load(), j.path
	if path == "" {
		return nil, errors.New("controller: journal has no path")
	}
	if offset < 0 || offset > size {
		return nil, fmt.Errorf("controller: journal read offset %d out of range [0,%d]", offset, size)
	}
	n := size - offset
	if n > int64(max) {
		n = int64(max)
	}
	if n == 0 {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("controller: journal read: %w", err)
	}
	defer f.Close() //nolint:errcheck // read-only handle
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, offset); err != nil {
		return nil, fmt.Errorf("controller: journal read at %d: %w", offset, err)
	}
	return buf, nil
}

// CRCAt returns the running CRC-32 over the journal's first offset
// bytes — the prefix mark a catch-up chunk from that offset carries so
// the standby can prove its journal is this journal's prefix before
// applying. Offsets only ever come from Size / JournalAck / JournalFetch
// values, so the prefix ends on a record boundary.
func (j *Journal) CRCAt(offset int64) (uint32, error) {
	if offset == 0 {
		return 0, nil
	}
	size, path := j.size.Load(), j.path
	if offset < 0 || offset > size {
		return 0, fmt.Errorf("controller: journal CRC offset %d out of range [0,%d]", offset, size)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("controller: journal CRC read: %w", err)
	}
	defer f.Close() //nolint:errcheck // read-only handle
	var crc uint32
	buf := make([]byte, 64<<10)
	for read := int64(0); read < offset; {
		n := int64(len(buf))
		if offset-read < n {
			n = offset - read
		}
		if _, err := io.ReadFull(f, buf[:n]); err != nil {
			return 0, fmt.Errorf("controller: journal CRC read at %d: %w", read, err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:n])
		read += n
	}
	return crc, nil
}

// LogEpoch records the epoch high-water, fenced by the pushing leader's
// term (0 in single-controller deployments). It is write-ahead: callers
// invoke it with mgmt.Server.Epoch()+1 before the push that mints that
// epoch, so a restart resumes past every epoch an agent may have seen.
func (j *Journal) LogEpoch(epoch, term uint64) error {
	return j.Append(JournalEpoch, EpochRecord{Epoch: epoch, Term: term})
}

// JournalState is the result of replaying a journal: the last intact
// value of every journaled quantity.
type JournalState struct {
	Fingerprint uint64
	Policies    []mgmt.PolicyDTO
	Failed      []topo.NodeID
	Epoch       uint64
	// Term is the highest election term any replayed epoch record was
	// fenced with (0 = single-controller history). A takeover resumes
	// epoch numbering past Epoch and term numbering past Term.
	Term    uint64
	Lambda  float64
	Weights map[topo.NodeID]map[enforce.WeightKey][]float64
	// Records counts intact records replayed; Bytes is the intact prefix
	// length in bytes (the replication offset a standby resumes from);
	// Torn reports whether a partial tail record was discarded (a crash
	// mid-append).
	Records int
	Bytes   int64
	Torn    bool
	// crc is the running CRC-32 over the intact prefix.
	crc uint32
}

// ReplayJournal reads a journal back, stopping cleanly at a torn tail (a
// partial, corrupt or undecodable record: replay ends at the last intact
// one before it).
func ReplayJournal(path string) (*JournalState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("controller: open journal: %w", err)
	}
	defer f.Close() //nolint:errcheck // read-only handle
	st := &JournalState{}
	if err := walkFrames(f, st); err != nil {
		return nil, err
	}
	return st, nil
}

// apply folds one intact record into the state (last record wins).
func (st *JournalState) apply(env *mgmt.Envelope) error {
	switch env.T {
	case JournalDeploy:
		var r DeployRecord
		if err := json.Unmarshal(env.Data, &r); err != nil {
			return fmt.Errorf("controller: journal deploy record: %w", err)
		}
		st.Fingerprint = r.Fingerprint
	case JournalPolicies:
		var r PoliciesRecord
		if err := json.Unmarshal(env.Data, &r); err != nil {
			return fmt.Errorf("controller: journal policies record: %w", err)
		}
		st.Policies = r.Policies
	case JournalFailed:
		var r FailedRecord
		if err := json.Unmarshal(env.Data, &r); err != nil {
			return fmt.Errorf("controller: journal failed record: %w", err)
		}
		st.Failed = st.Failed[:0]
		for _, id := range r.Failed {
			st.Failed = append(st.Failed, topo.NodeID(id))
		}
	case JournalEpoch:
		var r EpochRecord
		if err := json.Unmarshal(env.Data, &r); err != nil {
			return fmt.Errorf("controller: journal epoch record: %w", err)
		}
		if r.Epoch > st.Epoch {
			st.Epoch = r.Epoch
		}
		if r.Term > st.Term {
			st.Term = r.Term
		}
	case JournalWeights:
		var r WeightsRecord
		if err := json.Unmarshal(env.Data, &r); err != nil {
			return fmt.Errorf("controller: journal weights record: %w", err)
		}
		st.Lambda = r.Lambda
		st.Weights = make(map[topo.NodeID]map[enforce.WeightKey][]float64, len(r.Nodes))
		for _, nw := range r.Nodes {
			st.Weights[topo.NodeID(nw.Node)] = mgmt.WeightsFromDTO(nw.Rows)
		}
	default:
		return fmt.Errorf("controller: unknown journal record kind %q", env.T)
	}
	return nil
}

// Fingerprint hashes the controller's static planning inputs: topology
// size, middlebox placement, policy table, and the options that shape the
// plan. Two controllers with equal fingerprints compute identical
// candidate sets from identical failed-sets, which is what makes journal
// replay sufficient for byte-identical plan recovery.
func (c *Controller) Fingerprint() uint64 {
	h := fnv.New64a()
	put := func(format string, args ...interface{}) {
		fmt.Fprintf(h, format, args...) //nolint:errcheck // fnv never errors
	}
	put("g:%d/%d/%d;", c.dep.Graph.NumNodes(), c.dep.Graph.NumLinks(), c.dep.NumSubnets())
	for _, mb := range c.dep.MBNodes {
		put("mb:%d=", int(mb))
		for _, f := range c.dep.FuncsOf(mb) {
			put("%d,", int(f))
		}
	}
	for _, p := range c.policies.All() {
		put("p:%d/%d/%s/%s;", p.ID, p.Prio, p.Desc.String(), p.Actions.String())
	}
	// The literal 1 and false stand where two since-removed options (the
	// default candidate-set size and a classifier switch) were hashed, so
	// journals written before their removal still restore
	// (TestFingerprintPinned).
	put("o:%d/1/%v/%v/%d/%d/false/%d;", int(c.opts.Strategy),
		c.opts.CapLambda, c.opts.LabelSwitching, c.opts.FlowTTL, c.opts.LabelTTL,
		c.opts.HashSeed)
	funcs := make([]int, 0, len(c.opts.K))
	for f := range c.opts.K {
		funcs = append(funcs, int(f))
	}
	sort.Ints(funcs)
	for _, f := range funcs {
		put("k:%d=%d;", f, c.opts.K[policy.FuncType(f)])
	}
	return h.Sum64()
}

// SetJournal attaches a write-ahead journal: the static inputs are
// recorded immediately, and every subsequent MarkFailed / solved
// Recompute appends its record before the result can reach any node. nil
// detaches.
func (c *Controller) SetJournal(j *Journal) error {
	c.journal = j
	if j == nil {
		return nil
	}
	if err := j.Append(JournalDeploy, DeployRecord{
		Fingerprint: c.Fingerprint(),
		Nodes:       c.dep.Graph.NumNodes(),
		Middleboxes: len(c.dep.MBNodes),
		Policies:    c.policies.Len(),
	}); err != nil {
		return err
	}
	return j.Append(JournalPolicies, PoliciesRecord{Policies: policiesToDTO(c)})
}

// Journal returns the attached journal (nil if none).
func (c *Controller) Journal() *Journal { return c.journal }

// journalFailed appends the current failed set (no-op without a journal).
func (c *Controller) journalFailed() error {
	if c.journal == nil {
		return nil
	}
	r := FailedRecord{}
	for _, id := range c.Failed() {
		r.Failed = append(r.Failed, int(id))
	}
	return c.journal.Append(JournalFailed, r)
}

// journalWeights appends a solved weight plan (no-op without a journal).
func (c *Controller) journalWeights(lambda float64, weights weightPlan) error {
	if c.journal == nil {
		return nil
	}
	r := WeightsRecord{Lambda: lambda}
	for _, id := range sortedNodeKeys(weights) {
		r.Nodes = append(r.Nodes, NodeWeights{
			Node: int(id),
			Rows: mgmt.WeightsToDTO(0, weights[id]).Weights,
		})
	}
	return c.journal.Append(JournalWeights, r)
}

// RestoreFromJournal folds a replayed journal state back into the
// controller: the failed set is restored and the journaled plan is
// rebuilt — candidates over the restored failed set, weights and λ from
// the last weights record — as the plan every pipeline of this controller
// starts from. BuildNodesFromPlan(pipe.Plan()) therefore reproduces the
// pre-crash export, and the next Recompute is a full solve (no instance
// loads were journaled, so nothing may be carried). It refuses a journal
// whose deployment fingerprint does not match this controller's inputs, or
// whose failed set names a node MarkFailed would refuse.
func (c *Controller) RestoreFromJournal(st *JournalState) error {
	if st.Fingerprint != c.Fingerprint() {
		return fmt.Errorf("controller: journal fingerprint %#x does not match deployment %#x",
			st.Fingerprint, c.Fingerprint())
	}
	failed := make(map[topo.NodeID]bool, len(st.Failed))
	for _, id := range st.Failed {
		if !slices.Contains(c.dep.MBNodes, id) {
			return fmt.Errorf("controller: journaled failed set names node %v, which is not a middlebox", id)
		}
		failed[id] = true
	}
	c.failed = failed
	plan, err := c.CompilePlan(nil, false)
	if errors.Is(err, ErrNoLiveProvider) {
		// The journaled failed set starves a function: no plan exists to
		// restore. The next Recompute reports it to the recovery loop.
		return nil
	}
	if err != nil {
		return err
	}
	plan.Weights, plan.Lambda = st.Weights, st.Lambda
	c.restored = plan
	return nil
}

// AttachJournal makes the file at path the controller's write-ahead
// journal: whatever an earlier run left there is replayed and restored,
// then the file is reopened for appending and attached. It returns the
// replayed state (zero Records for a new file); the open journal is
// c.Journal(), which the caller closes.
func (c *Controller) AttachJournal(path string) (*JournalState, error) {
	st := &JournalState{}
	if _, err := os.Stat(path); err == nil {
		if st, err = ReplayJournal(path); err != nil {
			return nil, err
		}
	}
	j, err := OpenJournal(path)
	if err != nil {
		return nil, err
	}
	if err := c.ResumeJournal(st, j); err != nil {
		_ = j.Close()
		return nil, err
	}
	return st, nil
}

// ResumeJournal is AttachJournal for a caller that already holds the
// replayed state and the open journal (a replica promoted to leader):
// restore what was replayed, then attach the journal for appending.
func (c *Controller) ResumeJournal(st *JournalState, j *Journal) error {
	if st.Records > 0 {
		if err := c.RestoreFromJournal(st); err != nil {
			return err
		}
	}
	return c.SetJournal(j)
}

// policiesToDTO dumps the controller's full policy table in wire form.
func policiesToDTO(c *Controller) []mgmt.PolicyDTO {
	cfg := enforce.Config{Policies: c.policies.All()}
	return mgmt.ConfigToDTO(0, cfg).Policies
}
