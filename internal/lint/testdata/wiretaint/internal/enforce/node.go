// Package enforce is a stand-in for the real enforcement package: its
// import path ends in internal/enforce, so wiretaint treats Install and
// ApplyDelta as enforcement-state sinks.
package enforce

// Config is a node configuration.
type Config struct {
	Strategy int
	Weights  map[int]float64
}

// Node is an enforcement point.
type Node struct {
	cfg Config
}

// Install applies a full configuration (wiretaint sink).
func (n *Node) Install(cfg Config) error {
	n.cfg = cfg
	return nil
}

// ConfigDelta is an in-place configuration edit script.
type ConfigDelta struct {
	SetWeights map[int]float64
}

// ApplyDelta applies a configuration delta in place (wiretaint sink).
func (n *Node) ApplyDelta(d ConfigDelta) error {
	for k, v := range d.SetWeights {
		n.cfg.Weights[k] = v
	}
	return nil
}
