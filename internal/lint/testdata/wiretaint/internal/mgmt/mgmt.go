// Package mgmt mirrors the real management channel's decode-validate-
// apply pipeline in miniature, one function per wiretaint scenario.
package mgmt

import (
	"encoding/json"
	"errors"

	"wt/internal/controller"
	"wt/internal/enforce"
)

// ConfigDTO is the wire form of a configuration.
type ConfigDTO struct {
	Strategy int             `json:"strategy"`
	Weights  map[int]float64 `json:"weights"`
}

// Validate is the sanitizer wiretaint recognizes.
func (d *ConfigDTO) Validate() error {
	if d.Strategy <= 0 {
		return errors.New("bad strategy")
	}
	return nil
}

// FromDTO converts the wire form to the applied form; taint propagates
// through it.
func FromDTO(d ConfigDTO) enforce.Config {
	return enforce.Config{Strategy: d.Strategy, Weights: d.Weights}
}

// Device owns a node and applies functions to it in its own goroutine;
// the closure is where real agents install configuration.
type Device struct {
	n enforce.Node
}

// Do invokes f with the device's node.
func (d *Device) Do(f func(*enforce.Node)) bool {
	f(&d.n)
	return true
}

// ApplyUnvalidated installs wire input without validation: positive.
func ApplyUnvalidated(n *enforce.Node, data []byte) error {
	var dto ConfigDTO
	_ = json.Unmarshal(data, &dto)
	cfg := FromDTO(dto)
	return n.Install(cfg) // want:wiretaint
}

// ApplyValidated validates before use: negative.
func ApplyValidated(n *enforce.Node, data []byte) error {
	var dto ConfigDTO
	_ = json.Unmarshal(data, &dto)
	if err := dto.Validate(); err != nil {
		return err
	}
	return n.Install(FromDTO(dto))
}

// ApplyInClosure reaches the sink inside a Device.Do closure, like the
// real agent: positive (the taint layer follows values into literals).
func ApplyInClosure(d *Device, data []byte) {
	var dto ConfigDTO
	_ = json.Unmarshal(data, &dto)
	d.Do(func(n *enforce.Node) {
		_ = n.Install(FromDTO(dto)) // want:wiretaint
	})
}

// install is a helper whose parameter flows to a sink; callers holding
// tainted values are reported at their call site.
func install(n *enforce.Node, cfg enforce.Config) error {
	return n.Install(cfg)
}

// ApplyThroughHelper reaches the sink one call down: positive at the
// helper call, via the interprocedural parameter summary.
func ApplyThroughHelper(n *enforce.Node, data []byte) error {
	var dto ConfigDTO
	_ = json.Unmarshal(data, &dto)
	return install(n, FromDTO(dto)) // want:wiretaint
}

// ApplyConstant installs compile-time configuration: negative (nothing
// wire-decoded flows in).
func ApplyConstant(n *enforce.Node) error {
	return n.Install(enforce.Config{Strategy: 1})
}

// DeltaDTO is the wire form of a configuration delta.
type DeltaDTO struct {
	SetWeights map[int]float64 `json:"set_weights"`
}

// Validate is the delta sanitizer wiretaint recognizes.
func (d *DeltaDTO) Validate() error {
	for _, v := range d.SetWeights {
		if v < 0 {
			return errors.New("negative weight")
		}
	}
	return nil
}

// DeltaFromDTO converts the wire delta to the applied form; taint
// propagates through it.
func DeltaFromDTO(d DeltaDTO) enforce.ConfigDelta {
	return enforce.ConfigDelta{SetWeights: d.SetWeights}
}

// ApplyDeltaUnvalidated applies a wire-decoded delta without validation:
// positive (ApplyDelta is an enforcement-state sink like Install).
func ApplyDeltaUnvalidated(n *enforce.Node, data []byte) error {
	var dto DeltaDTO
	_ = json.Unmarshal(data, &dto)
	return n.ApplyDelta(DeltaFromDTO(dto)) // want:wiretaint
}

// ApplyDeltaValidated validates before applying: negative.
func ApplyDeltaValidated(n *enforce.Node, data []byte) error {
	var dto DeltaDTO
	_ = json.Unmarshal(data, &dto)
	if err := dto.Validate(); err != nil {
		return err
	}
	return n.ApplyDelta(DeltaFromDTO(dto))
}

// ApplyDeltaInClosure reaches ApplyDelta inside a Device.Do closure,
// like the real agent's delta path: positive.
func ApplyDeltaInClosure(d *Device, data []byte) {
	var dto DeltaDTO
	_ = json.Unmarshal(data, &dto)
	d.Do(func(n *enforce.Node) {
		_ = n.ApplyDelta(DeltaFromDTO(dto)) // want:wiretaint
	})
}

// Measure is the wire form of a proxy's measurement report.
type Measure struct {
	Rows map[int]int64 `json:"rows"`
}

// Validate is the report sanitizer wiretaint recognizes.
func (m *Measure) Validate() error {
	for _, v := range m.Rows {
		if v < 0 {
			return errors.New("negative packet count")
		}
	}
	return nil
}

// RecomputeUnvalidated solves on a wire-decoded report without
// validation: positive (Pipeline.Recompute is the control loop's sink).
func RecomputeUnvalidated(p *controller.Pipeline, data []byte) error {
	var m Measure
	_ = json.Unmarshal(data, &m)
	return p.Recompute(m.Rows) // want:wiretaint
}

// RecomputeValidated validates the report first: negative.
func RecomputeValidated(p *controller.Pipeline, data []byte) error {
	var m Measure
	_ = json.Unmarshal(data, &m)
	if err := m.Validate(); err != nil {
		return err
	}
	return p.Recompute(m.Rows)
}
