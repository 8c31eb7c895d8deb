package main

import (
	"encoding/binary"
	"sync"
	"time"

	"sdme/internal/enforce"
	"sdme/internal/flowtable"
	"sdme/internal/netaddr"
	"sdme/internal/nf"
	"sdme/internal/packet"
	"sdme/internal/policy"
)

// The ladder measures the layers the benchmark cannot put a span around
// because enforce calls them internally: it replays the workload's own key
// stream against each layer's public functions, one rung per function.

// ladderKeys is how many packets of the workload's stream a rung replays.
const ladderKeys = 8192

// rungs sizes a ladder: the least number of operations one rung times and
// the least time it runs for.
type rungs struct {
	ops int
	d   time.Duration
}

func (c runConfig) rungs() rungs {
	if c.smoke {
		return rungs{ops: 1000}
	}
	return rungs{ops: 200000, d: 20 * time.Millisecond}
}

var ladderSink uint64

// perOp runs body over the key indexes until the rung's operations and
// time are both done, and returns nanoseconds per operation.
func (r rungs) perOp(keys int, body func(i int)) float64 {
	ops := 0
	t0 := time.Now()
	for ops < r.ops || time.Since(t0) < r.d {
		for i := 0; i < keys; i++ {
			body(i)
		}
		ops += keys
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// selectProbe is one next-hop selection a proxy makes for a stream key.
type selectProbe struct {
	node     *enforce.Node
	policyID int
	fn       policy.FuncType
	flow     netaddr.FiveTuple
}

// ladderPacket builds the packet a generator would send for ft.
func ladderPacket(ft netaddr.FiveTuple, size int) *packet.Packet {
	p := packet.New(ft, size)
	p.Payload = make([]byte, size)
	for i := range p.Payload {
		p.Payload[i] = byte('a' + i%26)
	}
	binary.LittleEndian.PutUint64(p.Payload, uint64(ft.Src)<<16|uint64(ft.SrcPort))
	return p
}

// dataplane fills the packet-path rungs from a key stream (with the
// workload's own repeat/new/null mix), the largest relevant-policy set any
// node holds, and the proxies' selections for those keys.
func (r rungs) dataplane(L map[string]float64, keys []netaddr.FiveTuple, policies []*policy.Policy, probes []selectProbe) {
	n := len(keys)
	L["netaddr.hash_ns"] = r.perOp(n, func(i int) { ladderSink += keys[i].Hash(1) })

	// Flow table: hits over a table holding the stream's keys, serial and
	// from both generators' worth of goroutines; then the write side.
	tbl := flowtable.NewTableSharded(0, tableShards)
	for _, k := range keys {
		tbl.Insert(k, 1, nil, 0)
	}
	hit := func(i int) {
		if e, ok := tbl.Lookup(keys[i], 1); ok {
			ladderSink += uint64(e.PolicyID)
		}
	}
	L["flowtable.hit_ns"] = r.perOp(n, hit)
	passes := (r.ops + n - 1) / n
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < passes; pass++ {
				for i := g; i < n; i += generators {
					if _, ok := tbl.Lookup(keys[i], 1); !ok {
						panic("bench: ladder key missing from its table")
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Each goroutine did passes*n/generators lookups in the elapsed time.
	L["flowtable.parallel_hit_ns"] = float64(time.Since(t0).Nanoseconds()) * generators / float64(passes*n)

	labels := flowtable.NewLabelTableSharded(0, tableShards)
	lkeys := make([]flowtable.LabelKey, n)
	for i, k := range keys {
		lkeys[i] = flowtable.LabelKey{Src: k.Src, Label: uint16(i%packet.MaxLabel + 1)}
		labels.Insert(lkeys[i], 1, nil, k, 0)
	}
	L["flowtable.label_hit_ns"] = r.perOp(n, func(i int) {
		if e, ok := labels.Lookup(lkeys[i], 1); ok {
			ladderSink += uint64(e.PolicyID)
		}
	})

	// New flows: a miss, then the insert that follows it. Destinations
	// are rewritten so every operation meets a key the table lacks.
	fresh := flowtable.NewTableSharded(1, tableShards)
	next := 0
	L["flowtable.miss_insert_ns"] = r.perOp(n, func(i int) {
		k := keys[i]
		k.Dst = netaddr.Addr(next)
		next++
		if _, ok := fresh.Lookup(k, 0); !ok {
			fresh.Insert(k, 1, nil, 0)
		}
	})
	entries := fresh.Len()
	t0 = time.Now()
	if swept := fresh.Sweep(10); swept != entries {
		panic("bench: ladder sweep left entries behind")
	}
	L["flowtable.sweep_ns_per_entry"] = float64(time.Since(t0).Nanoseconds()) / float64(entries)

	// Both classifiers over the same rules and the same probe mix.
	linear := policy.NewTable()
	for _, p := range policies {
		linear.AddPolicy(p)
	}
	trie := policy.NewTrieClassifier(policies)
	match := func(c policy.Classifier) func(int) {
		return func(i int) {
			if p := c.Match(keys[i]); p != nil {
				ladderSink += uint64(p.ID)
			}
		}
	}
	L["policy.linear_match_ns"] = r.perOp(n, match(linear))
	L["policy.trie_match_ns"] = r.perOp(n, match(trie))
	L["policy.rules_per_node"] = float64(len(policies))

	if len(probes) > 0 {
		L["enforce.select_ns"] = r.perOp(len(probes), func(i int) {
			pr := &probes[i]
			if next, err := pr.node.SelectNext(pr.policyID, pr.fn, pr.flow); err == nil {
				ladderSink += uint64(next)
			}
		})
	}

	r.packet(L, keys)
	r.nf(L, keys)

	// What one span costs the traced phase: two clock reads and the
	// recorder's bookkeeping, about half of which lands in the parent.
	rec := &recorder{}
	rec.root(spanGen, 1, 2)
	L["bench.span_cost_ns"] = r.perOp(n, func(int) {
		rec.begin(spanForward)
		rec.end()
	})
	rec.end()
}

// packet times the wire codec on a tunnelled packet at the smallest
// and a near-MTU payload, and the two header transforms of a hop.
func (r rungs) packet(L map[string]float64, keys []netaddr.FiveTuple) {
	n := len(keys)
	for _, size := range []int{payloadBytes, 1400} {
		suffix := "_64_ns"
		if size != payloadBytes {
			suffix = "_1400_ns"
		}
		pkts := make([]*packet.Packet, 256)
		for i := range pkts {
			pkts[i] = ladderPacket(keys[i%n], size)
			if err := pkts[i].Encapsulate(keys[i%n].Src, keys[i%n].Dst); err != nil {
				panic(err)
			}
		}
		buf := make([]byte, 0, packet.WireBufferSize)
		L["packet.marshal"+suffix] = r.perOp(len(pkts), func(i int) {
			buf = pkts[i].AppendMarshal(buf[:0])
		})
		wires := make([][]byte, len(pkts))
		for i, p := range pkts {
			wires[i] = p.Marshal()
		}
		into := packet.Get()
		L["packet.unmarshal"+suffix] = r.perOp(len(pkts), func(i int) {
			if err := packet.UnmarshalInto(into, wires[i]); err != nil {
				panic(err)
			}
		})
		packet.Put(into)
	}
	// The pool the generators draw every packet from, at their
	// parallelism: the free list is one channel and they contend on it.
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < r.ops; i++ {
				packet.Put(packet.Get())
			}
		}()
	}
	wg.Wait()
	L["packet.pool_get_put_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(r.ops)

	p := ladderPacket(keys[0], payloadBytes)
	L["packet.encap_decap_ns"] = r.perOp(n, func(i int) {
		if err := p.Encapsulate(keys[i].Src, keys[i].Dst); err != nil {
			panic(err)
		}
		if _, err := p.Decapsulate(); err != nil {
			panic(err)
		}
	})
	L["packet.label_ns"] = r.perOp(n, func(i int) {
		if err := p.EmbedLabel(uint16(i%packet.MaxLabel + 1)); err != nil {
			panic(err)
		}
		ladderSink += uint64(p.Label())
		p.ClearLabel()
	})
}

// nf runs a fresh instance of every network function over the key
// stream. Only IDS and WP read the payload, so only they get a 1400 B rung.
func (r rungs) nf(L map[string]float64, keys []netaddr.FiveTuple) {
	n := len(keys)
	small := make([]*packet.Packet, n)
	large := make([]*packet.Packet, n)
	for i, k := range keys {
		small[i] = ladderPacket(k, payloadBytes)
		large[i] = ladderPacket(k, 1400)
	}
	rung := func(ft policy.FuncType, pkts []*packet.Packet) float64 {
		f, err := nf.New(ft)
		if err != nil {
			panic(err)
		}
		return r.perOp(n, func(i int) { ladderSink += uint64(f.Process(pkts[i], int64(i))) })
	}
	L["nf.fw_ns"] = rung(policy.FuncFW, small)
	L["nf.ids_ns"] = rung(policy.FuncIDS, small)
	L["nf.ids_1400_ns"] = rung(policy.FuncIDS, large)
	L["nf.wp_ns"] = rung(policy.FuncWP, small)
	L["nf.wp_1400_ns"] = rung(policy.FuncWP, large)
	L["nf.tm_ns"] = rung(policy.FuncTM, small)
}

// ladder replays the chain workload's own packet stream.
func (c *chainBed) ladder(res *result, r rungs) {
	g := &generator{id: 0, c: c}
	keys := make([]netaddr.FiveTuple, ladderKeys)
	var probes []selectProbe
	for i := range keys {
		keys[i] = g.flowAt(int64(i))
		if p := c.bed.table.Match(keys[i]); p != nil && !p.Actions.IsPermit() {
			first, _ := p.Actions.First()
			probes = append(probes, selectProbe{
				node: c.proxyOf[c.bed.dep.SubnetIndexOf(keys[i].Src)], policyID: p.ID, fn: first, flow: keys[i],
			})
		}
	}
	r.dataplane(res.Layer, keys, c.largestPolicySet(), probes)
}
