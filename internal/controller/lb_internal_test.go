package controller

import (
	"math"
	"testing"

	"sdme/internal/enforce"
	"sdme/internal/mgmt"
	"sdme/internal/policy"
)

// TestExtractWeightsClampsRoundOff is the regression test for the LP
// round-off negatives: a simplex vertex can carry ≈ −1e-9 for a variable
// that is mathematically zero, which the management channel's validation
// rightly refuses and which used to roll a whole rollout back. Round-off
// is clamped where the solution is copied into the weight vectors; a
// genuinely negative value is left alone, so it still fails validation
// instead of being hidden.
func TestExtractWeightsClampsRoundOff(t *testing.T) {
	solution := []float64{120, -1e-9, math.Copysign(0, -1), -1e-3}
	value := func(v int) float64 { return solution[v] }
	roundOff := enforce.WeightKey{PolicyID: 1, Func: policy.FuncFW}
	negative := enforce.WeightKey{PolicyID: 2, Func: policy.FuncFW}
	w := extractWeights([]wRef{
		{owner: 7, key: roundOff, vars: []int{0, 1, 2}},
		{owner: 7, key: negative, vars: []int{0, 3}},
	}, value)

	if got := w[7][roundOff]; len(got) != 3 || got[0] != 120 || got[1] != 0 || got[2] != 0 {
		t.Errorf("round-off vector = %v, want [120 0 0]", got)
	} else if math.Signbit(got[1]) || math.Signbit(got[2]) {
		t.Errorf("round-off vector = %v carries a negative zero", got)
	}
	if got := w[7][negative]; len(got) != 2 || got[1] != -1e-3 {
		t.Errorf("a real negative was altered: %v", got)
	}

	push := func(k enforce.WeightKey) error {
		dto := mgmt.DeltaToDTO(0, enforce.ConfigDelta{SetWeights: map[enforce.WeightKey][]float64{k: w[7][k]}})
		return dto.Validate()
	}
	if err := push(roundOff); err != nil {
		t.Errorf("clamped round-off still refused on the wire: %v", err)
	}
	if err := push(negative); err == nil {
		t.Error("a −1e-3 weight passed wire validation")
	}
}
