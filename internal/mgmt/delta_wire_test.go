package mgmt

import (
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"sdme/internal/enforce"
	"sdme/internal/metrics"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// The delta rollout's two safety rules are protocol behavior, so they
// are tested at the wire level with a scripted peer standing in for the
// agent: base fencing (a refused delta degrades to staging the merged
// full configuration at the same epoch) and merge-at-store (reconnect
// catch-up always re-pushes a full merged configuration, never a delta
// chain, no matter how many delta epochs a node is behind).

const fakeNode = topo.NodeID(7)

// dialFake connects a scripted agent to the server and completes the
// hello handshake, reporting the given applied epoch.
func dialFake(t *testing.T, addr string, epoch uint64) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeMsg(conn, TypeHello, Hello{NodeID: int(fakeNode), Epoch: epoch}); err != nil {
		t.Fatal(err)
	}
	env, err := readMsg(conn)
	if err != nil || env.T != TypeHelloAck {
		t.Fatalf("handshake: %v %v", env, err)
	}
	return conn
}

// serveScript records every envelope it receives and then answers it with
// handle's ack, until the connection closes. Recording comes first: once
// the server has the ack, the test may already be reading seen. A nil ack
// hangs up instead of answering.
func serveScript(t *testing.T, conn net.Conn, seen chan<- *Envelope, handle func(env *Envelope) *Ack) {
	for {
		env, err := readMsg(conn)
		if err != nil {
			return
		}
		ack := handle(env)
		if ack == nil {
			_ = conn.Close()
			return
		}
		seen <- env
		if _, err := writeMsg(conn, TypeAck, *ack); err != nil {
			return
		}
	}
}

// ackAll is the well-behaved script: every message is acked, prepares as
// staged.
func ackAll(t *testing.T) func(env *Envelope) *Ack {
	return func(env *Envelope) *Ack {
		seq, epoch := seqEpochOf(t, env)
		return &Ack{Seq: seq, Epoch: epoch, Prepared: env.T == TypePrepare || env.T == TypePrepareDelta}
	}
}

// oneNode is a one-node rollout of d (or, on a server without a base for
// the node, of the seed configuration).
func oneNode(srv *Server, d enforce.ConfigDelta, pol RetryPolicy) error {
	_, err := srv.PushAllDelta2PC(
		map[topo.NodeID]enforce.ConfigDelta{fakeNode: d},
		map[topo.NodeID]ConfigDTO{fakeNode: ConfigToDTO(0, seedConfig())}, pol)
	return err
}

func seqEpochOf(t *testing.T, env *Envelope) (uint64, uint64) {
	t.Helper()
	var hdr struct {
		Seq   uint64 `json:"seq"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(env.Data, &hdr); err != nil {
		t.Fatalf("decode %s header: %v", env.T, err)
	}
	return hdr.Seq, hdr.Epoch
}

func TestPushDeltaRequiresFullBase(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, err = srv.PushAllDelta2PC(map[topo.NodeID]enforce.ConfigDelta{fakeNode: seedDelta()}, nil,
		RetryPolicy{Attempts: 1, PerAttempt: time.Second})
	if !errors.Is(err, ErrNoBase) {
		t.Fatalf("delta rollout without a recorded base or a fallback: err = %v, want ErrNoBase", err)
	}
}

func TestPushDeltaBaseMismatchFallsBackToFull(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := metrics.NewRegistry(nil)
	srv.SetMetrics(reg)

	conn := dialFake(t, srv.Addr(), 0)
	defer conn.Close()
	seen := make(chan *Envelope, 16)
	ack := ackAll(t)
	go serveScript(t, conn, seen, func(env *Envelope) *Ack {
		a := ack(env)
		if env.T == TypePrepareDelta {
			// Script the race the fallback exists for: the agent reports
			// an applied epoch other than the delta's base.
			a.Error = RefuseDeltaBase + ": applied epoch 9, delta base 1"
		}
		return a
	})
	if !srv.WaitConnected(3*time.Second, fakeNode) {
		t.Fatal("fake agent not registered")
	}

	pol := RetryPolicy{Attempts: 1, PerAttempt: 3 * time.Second}
	if err := oneNode(srv, enforce.ConfigDelta{}, pol); err != nil {
		t.Fatalf("first rollout: %v", err)
	}
	if err := oneNode(srv, seedDelta(), pol); err != nil {
		t.Fatalf("delta rollout should fall back to full, got %v", err)
	}

	var types []string
	var fallback *Envelope
	for len(seen) > 0 {
		env := <-seen
		types = append(types, env.T)
		if env.T == TypePrepare {
			fallback = env
		}
	}
	want := []string{TypePrepare, TypeCommit, TypePrepareDelta, TypePrepare, TypeCommit}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("wire sequence = %v, want %v", types, want)
	}
	// The fallback is the delta-merged full configuration at the delta's
	// epoch: the seed delta removes policy 2, so the merged config must
	// not carry it.
	var dto ConfigDTO
	if err := json.Unmarshal(fallback.Data, &dto); err != nil {
		t.Fatal(err)
	}
	if dto.Epoch != 2 {
		t.Errorf("fallback epoch = %d, want the delta's epoch 2", dto.Epoch)
	}
	for _, p := range dto.Policies {
		if p.ID == 2 {
			t.Errorf("fallback config still carries removed policy 2")
		}
	}
	if got := reg.Counter(MetricDeltaFallbacks).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricDeltaFallbacks, got)
	}
	if reg.Counter(MetricPushBytesDelta).Value() == 0 {
		t.Errorf("%s not counted", MetricPushBytesDelta)
	}
	if reg.Counter(MetricPushBytesFull).Value() == 0 {
		t.Errorf("%s not counted", MetricPushBytesFull)
	}
}

func TestDeltaReconnectCatchupPushesMergedFull(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The scripted node stages everything and commits epochs 1 and 2, but
	// hangs up on the commit of epoch 3: a commit straggler.
	conn := dialFake(t, srv.Addr(), 0)
	seen := make(chan *Envelope, 16)
	ack := ackAll(t)
	go serveScript(t, conn, seen, func(env *Envelope) *Ack {
		if _, epoch := seqEpochOf(t, env); env.T == TypeCommit && epoch == 3 {
			return nil
		}
		return ack(env)
	})
	if !srv.WaitConnected(3*time.Second, fakeNode) {
		t.Fatal("fake agent not registered")
	}
	pol := RetryPolicy{Attempts: 1, PerAttempt: 3 * time.Second}
	if err := oneNode(srv, enforce.ConfigDelta{}, pol); err != nil {
		t.Fatalf("first rollout: %v", err)
	}

	// Two delta epochs. The first commits; the second is decided — every
	// node staged it — and then the node goes dark before confirming.
	// Merge-at-store advanced the recorded latest plan to the merged full
	// configuration at each commit decision.
	d1 := enforce.ConfigDelta{Removes: []int{2}}
	d2 := enforce.ConfigDelta{SetWeights: map[enforce.WeightKey][]float64{
		{PolicyID: 1, Func: policy.FuncFW}: {0.25, 0.75},
	}}
	if err := oneNode(srv, d1, pol); err != nil {
		t.Fatalf("first delta rollout: %v", err)
	}
	if err := oneNode(srv, d2, pol); !errors.Is(err, ErrCommitStraggler) {
		t.Fatalf("rollout whose commit the node never confirmed: err = %v, want ErrCommitStraggler", err)
	}
	for len(seen) > 0 {
		<-seen
	}

	// Reconnect reporting only epoch 1 applied — two delta epochs behind.
	// Catch-up must send ONE full config at the newest epoch with both
	// deltas folded in — a node is never asked to replay a delta chain.
	conn2 := dialFake(t, srv.Addr(), 1)
	defer conn2.Close()
	go serveScript(t, conn2, seen, ackAll(t))
	var env *Envelope
	select {
	case env = <-seen:
	case <-time.After(3 * time.Second):
		t.Fatal("no catch-up push after reconnect")
	}
	if env.T != TypeConfig {
		t.Fatalf("catch-up pushed %s, want %s", env.T, TypeConfig)
	}
	var dto ConfigDTO
	if err := json.Unmarshal(env.Data, &dto); err != nil {
		t.Fatal(err)
	}
	if dto.Epoch != 3 {
		t.Errorf("catch-up epoch = %d, want 3 (both delta epochs folded)", dto.Epoch)
	}
	for _, p := range dto.Policies {
		if p.ID == 2 {
			t.Errorf("catch-up config still carries policy 2 removed by the first delta")
		}
	}
	var w []float64
	for _, wd := range dto.Weights {
		if wd.PolicyID == 1 && wd.Func == int(policy.FuncFW) {
			w = wd.Weights
		}
	}
	if len(w) != 2 || w[0] != 0.25 || w[1] != 0.75 {
		t.Errorf("catch-up config missing the second delta's weights: %v", w)
	}
}
