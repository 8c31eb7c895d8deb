package experiments

import "sdme/internal/faultinject"

// Composite is the scenario ROADMAP 1(a) asks for, as one value: sustained
// traffic, a firewall crash the first leader repairs, that leader killed,
// and an IDS crash only its successor can repair. Both crashes address the
// bed's own boxes, so the schedule is built over one.
func Composite(seed int64) (Scenario, error) {
	bed, err := newFaultBed(seed, 0)
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{
		Seed: seed, Flows: 10, PacketsPerFlow: 2400, Replicas: 3, Reaction: Repair,
		Schedule: &faultinject.Schedule{Seed: seed, Events: []faultinject.Event{
			{AtUS: 20_000, Kind: faultinject.KindCrash, Target: bed.fw[0]},
			{AtUS: 150_000, Kind: faultinject.KindLeaderKill},
			{AtUS: 900_000, Kind: faultinject.KindCrash, Target: bed.ids[0]},
		}},
	}, nil
}
