// Package workload generates the synthetic policies and traffic of the
// paper's evaluation (§IV-A):
//
//   - three policy classes — many-to-one (protect a destination service:
//     FW → IDS), one-to-many (outbound web from one subnet:
//     FW → IDS → WP), and one-to-one (investigate a subnet pair:
//     IDS → TM);
//   - flows split evenly across the classes, with power-law (bounded
//     Pareto) sizes in [1, 5000] packets.
//
// The paper reports 30k–300k flows producing 1M–10M packets, i.e. a mean
// flow size near 33 packets; a bounded Pareto on [1, 5000] hits that mean
// at alpha ≈ 0.65, which is therefore the default shape parameter (the
// paper states only "power law"; this choice is recorded in DESIGN.md).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// Class labels the paper's three policy classes.
type Class int

// Policy classes (§IV-A).
const (
	ManyToOne Class = iota + 1
	OneToMany
	OneToOne
)

// String renders the class.
func (c Class) String() string {
	switch c {
	case ManyToOne:
		return "many-to-one"
	case OneToMany:
		return "one-to-many"
	case OneToOne:
		return "one-to-one"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Actions returns the class's action chain as used in the evaluation.
func (c Class) Actions() policy.ActionList {
	switch c {
	case ManyToOne:
		return policy.ActionList{policy.FuncFW, policy.FuncIDS}
	case OneToMany:
		return policy.ActionList{policy.FuncFW, policy.FuncIDS, policy.FuncWP}
	case OneToOne:
		return policy.ActionList{policy.FuncIDS, policy.FuncTM}
	default:
		return nil
	}
}

// ClassedPolicy pairs an installed policy with its generation metadata.
type ClassedPolicy struct {
	Policy *policy.Policy
	Class  Class
	// SrcSubnet/DstSubnet are 1-based subnet indexes; 0 means wildcard.
	SrcSubnet, DstSubnet int
	// Service is the destination port the policy constrains.
	Service uint16
}

// GenConfig parameterizes generation.
type GenConfig struct {
	// Subnets is the number of stub subnets (= policy proxies) in the
	// topology; subnet indexes are 1..Subnets.
	Subnets int
	// PoliciesPerClass is how many policies of each class to create.
	PoliciesPerClass int
	// Companions adds, for each one-to-many web policy, the §IV-A
	// "many-to-one companion policy for the return web traffic":
	// wildcard-source traffic from port 80 back into the subnet,
	// traversing the same chain reversed.
	Companions bool
}

// Flow sizes follow a bounded Pareto with shape sizeAlpha on
// [sizeMin, sizeMax] packets: the power law §IV-A names, with the
// parameters DESIGN §2 fixes.
const (
	sizeAlpha        = 0.65
	sizeMin, sizeMax = 1, 5000
)

func (c *GenConfig) fill() {
	if c.PoliciesPerClass == 0 {
		c.PoliciesPerClass = 10
	}
}

// webPort is the HTTP service used by one-to-many policies.
const webPort = 80

// randService picks an "arbitrary service" destination port.
func randService(rng *rand.Rand) uint16 {
	wellKnown := []uint16{22, 25, 53, 110, 143, 443, 993, 3306, 5432, 8080}
	return wellKnown[rng.Intn(len(wellKnown))]
}

// GeneratePolicies creates cfg.PoliciesPerClass policies of each class,
// installs them into tbl (in class-interleaved order) and returns the
// classed metadata. Destination/source subnets are chosen uniformly; a
// one-to-one policy always uses two distinct subnets.
func GeneratePolicies(cfg GenConfig, tbl *policy.Table, rng *rand.Rand) []ClassedPolicy {
	cfg.fill()
	if cfg.Subnets < 2 {
		panic("workload: need at least 2 subnets")
	}
	var out []ClassedPolicy
	for i := 0; i < cfg.PoliciesPerClass; i++ {
		for _, class := range []Class{ManyToOne, OneToMany, OneToOne} {
			cp := ClassedPolicy{Class: class}
			d := policy.NewDescriptor()
			switch class {
			case ManyToOne:
				cp.DstSubnet = 1 + rng.Intn(cfg.Subnets)
				cp.Service = randService(rng)
				d.Dst = topo.SubnetPrefix(cp.DstSubnet)
				d.DstPort = netaddr.SinglePort(cp.Service)
			case OneToMany:
				cp.SrcSubnet = 1 + rng.Intn(cfg.Subnets)
				cp.Service = webPort
				d.Src = topo.SubnetPrefix(cp.SrcSubnet)
				d.DstPort = netaddr.SinglePort(webPort)
				if cfg.Companions {
					// Return web traffic: src port 80 from anywhere back
					// into the subnet, reversed chain (§IV-A).
					rd := policy.NewDescriptor()
					rd.Dst = topo.SubnetPrefix(cp.SrcSubnet)
					rd.SrcPort = netaddr.SinglePort(webPort)
					rev := make(policy.ActionList, 0, len(class.Actions()))
					for i := len(class.Actions()) - 1; i >= 0; i-- {
						rev = append(rev, class.Actions()[i])
					}
					tbl.Add(rd, rev)
				}
			case OneToOne:
				cp.SrcSubnet = 1 + rng.Intn(cfg.Subnets)
				cp.DstSubnet = 1 + rng.Intn(cfg.Subnets-1)
				if cp.DstSubnet >= cp.SrcSubnet {
					cp.DstSubnet++
				}
				cp.Service = randService(rng)
				d.Src = topo.SubnetPrefix(cp.SrcSubnet)
				d.Dst = topo.SubnetPrefix(cp.DstSubnet)
				d.DstPort = netaddr.SinglePort(cp.Service)
			}
			cp.Policy = tbl.Add(d, class.Actions())
			out = append(out, cp)
		}
	}
	return out
}

// Flow is one generated traffic flow.
type Flow struct {
	Tuple   netaddr.FiveTuple
	Packets int
	// Under is the policy the flow was generated to match.
	Under *ClassedPolicy
	// SrcSubnet/DstSubnet are the subnet indexes of the endpoints.
	SrcSubnet, DstSubnet int
}

// SizeSampler draws bounded-Pareto flow sizes by inverse-CDF sampling.
type SizeSampler struct {
	alpha    float64
	min, max float64
	// precomputed 1 - (L/H)^alpha
	tail float64
}

// NewSizeSampler builds a sampler on [min, max] with shape alpha.
func NewSizeSampler(alpha float64, min, max int) *SizeSampler {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	l, h := float64(min), float64(max)
	return &SizeSampler{
		alpha: alpha, min: l, max: h,
		tail: 1 - math.Pow(l/h, alpha),
	}
}

// Sample draws one flow size in [min, max].
func (s *SizeSampler) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	x := s.min * math.Pow(1-u*s.tail, -1/s.alpha)
	if x > s.max {
		x = s.max
	}
	n := int(x)
	if n < int(s.min) {
		n = int(s.min)
	}
	return n
}

// Mean returns the analytic mean of the bounded Pareto distribution.
func (s *SizeSampler) Mean() float64 {
	a, l, h := s.alpha, s.min, s.max
	if a == 1 {
		return l * math.Log(h/l) / (1 - l/h)
	}
	num := math.Pow(l, a) / (1 - math.Pow(l/h, a)) * a / (1 - a)
	return num * (math.Pow(h, 1-a) - math.Pow(l, 1-a))
}

// GenerateFlows creates flows assigned to the classed policies until the
// cumulative packet count reaches targetPackets (§IV-A generates flows
// whose totals range 1M–10M). Flows rotate through the three classes so
// each class carries one third of the flows; within a class the concrete
// policy is chosen uniformly. The returned flows' tuples are guaranteed
// to match their generating policy's descriptor.
func GenerateFlows(cfg GenConfig, policies []ClassedPolicy, targetPackets int, rng *rand.Rand) []Flow {
	byClass := map[Class][]*ClassedPolicy{}
	for i := range policies {
		cp := &policies[i]
		byClass[cp.Class] = append(byClass[cp.Class], cp)
	}
	classes := []Class{ManyToOne, OneToMany, OneToOne}
	for _, c := range classes {
		if len(byClass[c]) == 0 {
			panic(fmt.Sprintf("workload: no policies of class %v", c))
		}
	}
	sampler := NewSizeSampler(sizeAlpha, sizeMin, sizeMax)

	var flows []Flow
	total := 0
	for i := 0; total < targetPackets; i++ {
		class := classes[i%len(classes)]
		list := byClass[class]
		cp := list[rng.Intn(len(list))]
		f := Flow{
			Under:   cp,
			Packets: sampler.Sample(rng),
		}

		srcSub := cp.SrcSubnet
		if srcSub == 0 { // wildcard source: anywhere but the destination
			srcSub = randOther(rng, cfg.Subnets, cp.DstSubnet)
		}
		dstSub := cp.DstSubnet
		if dstSub == 0 { // wildcard destination: anywhere but the source
			dstSub = randOther(rng, cfg.Subnets, cp.SrcSubnet)
		}
		f.SrcSubnet, f.DstSubnet = srcSub, dstSub
		f.Tuple = netaddr.FiveTuple{
			Src:     topo.HostAddr(srcSub, 1+rng.Intn(200)),
			Dst:     topo.HostAddr(dstSub, 1+rng.Intn(200)),
			SrcPort: uint16(20000 + rng.Intn(40000)),
			DstPort: cp.Service,
			Proto:   netaddr.ProtoTCP,
		}
		flows = append(flows, f)
		total += f.Packets
	}
	return flows
}

// randOther picks a subnet index in [1, n] different from excl (0 = no
// exclusion).
func randOther(rng *rand.Rand, n, excl int) int {
	if excl == 0 {
		return 1 + rng.Intn(n)
	}
	v := 1 + rng.Intn(n-1)
	if v >= excl {
		v++
	}
	return v
}

// TotalPackets sums the packet counts of flows.
func TotalPackets(flows []Flow) int {
	total := 0
	for _, f := range flows {
		total += f.Packets
	}
	return total
}
