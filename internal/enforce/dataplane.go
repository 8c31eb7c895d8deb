package enforce

import (
	"fmt"
	"sync/atomic"

	"sdme/internal/flowtable"
	"sdme/internal/netaddr"
	"sdme/internal/nf"
	"sdme/internal/packet"
	"sdme/internal/policy"
)

// Forwarder abstracts the network below the enforcement layer. The
// discrete-event simulator, the live UDP runtime, and unit tests each
// provide one. Implementations route by the packet's outermost
// destination address — exactly what the policy-oblivious routers do.
type Forwarder interface {
	// Send transmits a data packet from the node.
	Send(from *Node, pkt *packet.Packet)
	// SendControl transmits a §III-E control message announcing that
	// flow's chain is fully installed, addressed to the proxy at "to".
	SendControl(from *Node, to netaddr.Addr, flow netaddr.FiveTuple)
}

// HandleOutbound is the proxy entry point: a packet leaving the proxy's
// stub network. It classifies the flow, applies §III-D/§III-E state
// handling, and forwards — tunneled to the first middlebox of the chain,
// label-switched once the chain is installed, or plain when no policy
// applies (§III-B).
func (n *Node) HandleOutbound(pkt *packet.Packet, now int64, fwd Forwarder) error {
	if !n.IsProxy {
		atomic.AddInt64(&n.Counters.Misdirected, 1)
		return fmt.Errorf("enforce: HandleOutbound on middlebox %v", n.ID)
	}
	atomic.AddInt64(&n.Counters.PacketsIn, 1)
	ft := pkt.FiveTuple()
	n.trace(ft, HopIngress, 0, now)
	entry := n.classify(ft, now)

	// Measurement: every policy-matching packet is tallied for the
	// controller (§III-C).
	if !entry.Null {
		k := MeasKey{
			PolicyID:  entry.PolicyID,
			SrcSubnet: n.SubnetIdx,
			DstSubnet: n.dep.SubnetIndexOf(ft.Dst),
		}
		n.measMu.Lock()
		n.meas[k]++
		n.measMu.Unlock()
	}

	if entry.Null || entry.Actions.IsPermit() {
		atomic.AddInt64(&n.Counters.PlainTx, 1)
		n.trace(ft, HopForward, 0, now)
		fwd.Send(n, pkt)
		return nil
	}

	first, _ := entry.Actions.First()
	hop, err := n.next(entry.Hop, entry.PolicyID, first, ft)
	if err != nil {
		return err
	}
	if hop.Pinned = true; hop != entry.Hop {
		n.flows.SetHop(ft, hop)
	}
	nextAddr := hop.HopAddr

	if n.cfg.LabelSwitching && entry.LabelSwitched && entry.Label != 0 {
		// Established chain: rewrite the destination and ride the label.
		if err := pkt.EmbedLabel(entry.Label); err == nil {
			pkt.Inner.Dst = nextAddr
			atomic.AddInt64(&n.Counters.LabelTx, 1)
			fwd.Send(n, pkt)
			return nil
		}
		// Fragmented packet mid-flow: fall through to tunneling.
	}

	if n.cfg.LabelSwitching && !pkt.OutermostHeader().IsFragment() {
		// Chain not yet confirmed: label the packet so the middleboxes
		// install their label-table entries as it passes (§III-E).
		if l := n.flows.AllocLabel(ft); l != 0 {
			if err := pkt.EmbedLabel(l); err != nil {
				return err
			}
		}
	}
	if err := pkt.Encapsulate(n.Addr, nextAddr); err != nil {
		return err
	}
	atomic.AddInt64(&n.Counters.TunnelTx, 1)
	n.trace(ft, HopEncap, first, now)
	fwd.Send(n, pkt)
	return nil
}

// HandleArrival is the middlebox entry point: a packet whose outermost
// destination is this middlebox, either IP-over-IP tunneled (first
// packets of a flow) or label-switched (subsequent packets).
func (n *Node) HandleArrival(pkt *packet.Packet, now int64, fwd Forwarder) error {
	if n.IsProxy {
		atomic.AddInt64(&n.Counters.Misdirected, 1)
		return fmt.Errorf("enforce: HandleArrival on proxy %v", n.ID)
	}
	atomic.AddInt64(&n.Counters.PacketsIn, 1)
	if pkt.IsEncapsulated() {
		return n.handleTunneled(pkt, now, fwd)
	}
	return n.handleLabeled(pkt, now, fwd)
}

func (n *Node) handleTunneled(pkt *packet.Packet, now int64, fwd Forwarder) error {
	outer, err := pkt.Decapsulate()
	if err != nil {
		return err
	}
	ft := pkt.FiveTuple()
	n.trace(ft, HopDecap, 0, now)
	entry := n.classify(ft, now)
	if entry.Null {
		// The proxy only tunnels policy traffic; a null here means our
		// P_x is inconsistent with the proxy's. Forward plain rather
		// than blackhole, and count it.
		atomic.AddInt64(&n.Counters.Misdirected, 1)
		atomic.AddInt64(&n.Counters.PlainTx, 1)
		fwd.Send(n, pkt)
		return nil
	}

	myFunc, ok := n.myFunc(entry.Actions)
	if !ok {
		atomic.AddInt64(&n.Counters.Misdirected, 1)
		return fmt.Errorf("enforce: middlebox %v got chain %v it cannot serve", n.ID, entry.Actions)
	}

	// Label-table installation while the first packet traverses (§III-E).
	lbl := pkt.Label()
	nextFunc, hasNext := entry.Actions.Next(myFunc)
	k := flowtable.LabelKey{Src: ft.Src, Label: lbl}
	installed := false // a mid-chain label entry, pinned once the next hop is known
	if n.cfg.LabelSwitching && lbl != 0 {
		if hasNext {
			n.labels.Insert(k, entry.PolicyID, entry.Actions, ft, now)
			installed = true
		} else {
			n.labels.InsertTail(k, entry.PolicyID, entry.Actions, ft, now)
		}
	}

	verdict := n.observedProcess(myFunc, ft, pkt, now)
	switch verdict {
	case nf.VerdictDrop:
		atomic.AddInt64(&n.Counters.Dropped, 1)
		return nil
	case nf.VerdictServe:
		atomic.AddInt64(&n.Counters.Served, 1)
		return nil
	}

	if !hasNext {
		// Chain complete: notify the proxy (outer source held its
		// address along the whole chain) and forward the original.
		if n.cfg.LabelSwitching {
			if lbl != 0 {
				atomic.AddInt64(&n.Counters.ControlTx, 1)
				fwd.SendControl(n, outer.Src, ft)
			}
			// Only label mode wrote these fields; in tunnel mode they are
			// the host's.
			pkt.ClearLabel()
		}
		atomic.AddInt64(&n.Counters.PlainTx, 1)
		n.trace(ft, HopForward, 0, now)
		fwd.Send(n, pkt)
		return nil
	}

	hop, err := n.next(entry.Hop, entry.PolicyID, nextFunc, ft)
	if err != nil {
		return err
	}
	if hop != entry.Hop { // a middlebox's flow entry keeps its hop unpinned
		n.flows.SetHop(ft, hop)
	}
	if installed {
		hop.Pinned = true
		n.labels.SetHop(k, hop)
	}
	// Re-tunnel, preserving the proxy as outer source (§III-E).
	if err := pkt.Encapsulate(outer.Src, hop.HopAddr); err != nil {
		return err
	}
	atomic.AddInt64(&n.Counters.TunnelTx, 1)
	n.trace(ft, HopEncap, nextFunc, now)
	fwd.Send(n, pkt)
	return nil
}

func (n *Node) handleLabeled(pkt *packet.Packet, now int64, fwd Forwarder) error {
	lbl := pkt.Label()
	if !n.cfg.LabelSwitching || lbl == 0 {
		atomic.AddInt64(&n.Counters.Misdirected, 1)
		return fmt.Errorf("enforce: middlebox %v got unlabeled plain packet %v", n.ID, pkt)
	}
	k := flowtable.LabelKey{Src: pkt.Inner.Src, Label: lbl}
	entry, ok := n.labels.Lookup(k, now)
	if !ok {
		// Soft state expired or never installed; without the original
		// destination we cannot recover the flow. Count and drop.
		atomic.AddInt64(&n.Counters.LabelMiss, 1)
		return nil
	}

	myFunc, ok := n.myFunc(entry.Actions)
	if !ok {
		atomic.AddInt64(&n.Counters.Misdirected, 1)
		return fmt.Errorf("enforce: middlebox %v got labeled chain %v it cannot serve", n.ID, entry.Actions)
	}
	verdict := n.observedProcess(myFunc, entry.Flow, pkt, now)
	switch verdict {
	case nf.VerdictDrop:
		atomic.AddInt64(&n.Counters.Dropped, 1)
		return nil
	case nf.VerdictServe:
		atomic.AddInt64(&n.Counters.Served, 1)
		return nil
	}

	nextFunc, hasNext := entry.Actions.Next(myFunc)
	if !hasNext {
		if !entry.HasDst {
			atomic.AddInt64(&n.Counters.LabelMiss, 1)
			return fmt.Errorf("enforce: tail label entry without destination at %v", n.ID)
		}
		pkt.Inner.Dst = entry.Dst
		pkt.ClearLabel()
		atomic.AddInt64(&n.Counters.PlainTx, 1)
		n.trace(entry.Flow, HopForward, 0, now)
		fwd.Send(n, pkt)
		return nil
	}
	// Select with the ORIGINAL tuple so the choice matches the tunneled
	// first packet.
	hop, err := n.next(entry.Hop, entry.PolicyID, nextFunc, entry.Flow)
	if err != nil {
		return err
	}
	if hop.Pinned = true; hop != entry.Hop {
		n.labels.SetHop(k, hop)
	}
	pkt.Inner.Dst = hop.HopAddr
	atomic.AddInt64(&n.Counters.LabelTx, 1)
	fwd.Send(n, pkt)
	return nil
}

// process runs the node's function instance on the packet and counts the
// load (the Figures 4/5 metric).
func (n *Node) process(f policy.FuncType, pkt *packet.Packet, now int64) nf.Verdict {
	atomic.AddInt64(&n.Counters.Load, 1)
	fn := n.Funcs[f]
	if fn == nil {
		return nf.VerdictPass
	}
	return fn.Process(pkt, now)
}

// observedProcess is process plus the observability layer: a HopProcess
// trace record and the per-(node, func) packet/byte/drop/serve counters.
// flow must be the ORIGINAL 5-tuple (handleLabeled resolves it from the
// label table; the rewritten header must not leak into records).
func (n *Node) observedProcess(f policy.FuncType, flow netaddr.FiveTuple, pkt *packet.Packet, now int64) nf.Verdict {
	n.trace(flow, HopProcess, f, now)
	verdict := n.process(f, pkt, now)
	if n.nm != nil {
		if fm := n.nm.perFunc[f]; fm != nil {
			fm.packets.Inc()
			fm.bytes.Add(int64(pkt.Size()))
			switch verdict {
			case nf.VerdictDrop:
				fm.drops.Inc()
			case nf.VerdictServe:
				fm.serves.Inc()
			}
		}
	}
	return verdict
}

// HandleControl is the proxy-side receiver for §III-E control messages:
// it flips the flow's label-switching flag.
func (n *Node) HandleControl(flow netaddr.FiveTuple, now int64) {
	if !n.IsProxy {
		atomic.AddInt64(&n.Counters.Misdirected, 1)
		return
	}
	atomic.AddInt64(&n.Counters.ControlRx, 1)
	n.flows.FlagLabelSwitched(flow, now)
}

// Sweep expires idle soft state on both tables. Drivers call it
// periodically (a live device's dispatcher every half TTL); it is safe
// while packet handlers run.
func (n *Node) Sweep(now int64) int {
	total := 0
	if n.flows != nil {
		total += n.flows.Sweep(now)
	}
	if n.labels != nil {
		total += n.labels.Sweep(now)
	}
	return total
}
