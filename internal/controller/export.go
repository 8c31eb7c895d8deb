package controller

import (
	"encoding/json"
	"io"

	"sdme/internal/enforce"
	"sdme/internal/topo"
)

// Configuration export: the controller can serialize exactly what it
// pushed to every node — relevant policies, candidate sets, strategy and
// LB weights — as JSON for audit tooling, change review and debugging.
// This is the operational surface a deployed controller would expose.

// ExportedPolicy is one policy row in an export.
type ExportedPolicy struct {
	ID         int    `json:"id"`
	Descriptor string `json:"descriptor"`
	Actions    string `json:"actions"`
}

// ExportedWeight is one LB weight vector in an export.
type ExportedWeight struct {
	PolicyID  int       `json:"policy_id"`
	Func      string    `json:"func"`
	SrcSubnet int       `json:"src_subnet,omitempty"`
	DstSubnet int       `json:"dst_subnet,omitempty"`
	Weights   []float64 `json:"weights"`
}

// ExportedNode is one node's full configuration.
type ExportedNode struct {
	Name       string              `json:"name"`
	ID         int                 `json:"id"`
	Kind       string              `json:"kind"`
	Addr       string              `json:"addr"`
	Subnet     int                 `json:"subnet,omitempty"`
	Strategy   string              `json:"strategy"`
	Policies   []ExportedPolicy    `json:"policies"`
	Candidates map[string][]string `json:"candidates"`
	Weights    []ExportedWeight    `json:"weights,omitempty"`
}

// Export captures a whole deployment's configuration.
type Export struct {
	Topology struct {
		Nodes       int `json:"nodes"`
		Links       int `json:"links"`
		Subnets     int `json:"subnets"`
		Middleboxes int `json:"middleboxes"`
	} `json:"topology"`
	FailedMiddleboxes []string       `json:"failed_middleboxes,omitempty"`
	Nodes             []ExportedNode `json:"nodes"`
}

// ExportConfig renders every node's configuration, as NodeConfigs derives
// it from a plan.
func (c *Controller) ExportConfig(cfgs map[topo.NodeID]enforce.Config) *Export {
	out := &Export{}
	out.Topology.Nodes = c.dep.Graph.NumNodes()
	out.Topology.Links = c.dep.Graph.NumLinks()
	out.Topology.Subnets = c.dep.NumSubnets()
	out.Topology.Middleboxes = len(c.dep.MBNodes)
	for _, id := range c.Failed() {
		out.FailedMiddleboxes = append(out.FailedMiddleboxes, c.dep.Graph.Node(id).Name)
	}

	for _, id := range sortedNodeKeys(cfgs) {
		gn := c.dep.Graph.Node(id)
		cfg := cfgs[id]
		en := ExportedNode{
			Name:     gn.Name,
			ID:       int(id),
			Kind:     gn.Kind.String(),
			Addr:     gn.Addr.String(),
			Strategy: cfg.Strategy.String(),
		}
		if gn.Kind == topo.KindProxy {
			en.Subnet = topo.SubnetIndexOf(gn.Addr)
		}
		for _, p := range cfg.Policies {
			en.Policies = append(en.Policies, ExportedPolicy{
				ID: p.ID, Descriptor: p.Desc.String(), Actions: p.Actions.String(),
			})
		}
		en.Candidates = make(map[string][]string, len(cfg.Candidates))
		for f, cands := range cfg.Candidates {
			names := make([]string, len(cands))
			for i, mb := range cands {
				names[i] = c.dep.Graph.Node(mb).Name
			}
			en.Candidates[f.String()] = names
		}
		for _, k := range sortedWeightKeys(cfg.Weights) {
			en.Weights = append(en.Weights, ExportedWeight{
				PolicyID: k.PolicyID, Func: k.Func.String(),
				SrcSubnet: k.SrcSubnet, DstSubnet: k.DstSubnet,
				Weights: cfg.Weights[k],
			})
		}
		out.Nodes = append(out.Nodes, en)
	}
	return out
}

// WriteJSON writes the export as indented JSON.
func (e *Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}
