// Package controller is a stand-in for the real controller package: its
// import path ends in internal/controller, so wiretaint treats
// Pipeline.Recompute as a control-loop sink.
package controller

// Pipeline is the one control loop.
type Pipeline struct {
	meas map[int]int64
}

// Recompute re-plans over a measurement matrix (wiretaint sink).
func (p *Pipeline) Recompute(meas map[int]int64) error {
	p.meas = meas
	return nil
}
