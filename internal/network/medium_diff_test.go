package network

import (
	"math/rand/v2"
	"testing"
	"time"

	"eend/internal/geom"
	"eend/internal/radio"
	"eend/internal/topology"
	"eend/internal/traffic"
)

// TestRunFingerprintGridVsLinearMedium is the end-to-end differential for
// the spatial neighbor index: randomized fields — node counts, every
// topology family, both radio cards, power control on/off, several seeds —
// must produce bit-identical Results fingerprints whether the medium prunes
// receiver candidates through the grid or linear-scans every listener. Any
// index bug that changes delivery order, collision outcomes, carrier sense
// or neighbor tables moves per-node energies and is caught here.
func TestRunFingerprintGridVsLinearMedium(t *testing.T) {
	kinds := []topology.Spec{
		{Kind: topology.Uniform},
		{Kind: topology.Grid, Jitter: 0.3},
		{Kind: topology.Cluster},
		{Kind: topology.Corridor},
	}
	stacks := []Stack{
		{Routing: ProtoTITAN, PM: PMODPM, PowerControl: true},
		{Routing: ProtoDSR, PM: PMODPM},
		{Routing: ProtoDSDVH, PM: PMAlwaysActive},
		{Routing: ProtoDSDV, PM: PMODPM},
	}
	cards := []radio.Card{radio.Cabletron, radio.Aironet350}

	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x9e3779b9))
		spec := kinds[int(seed)%len(kinds)]
		card := cards[int(seed)%len(cards)]
		st := stacks[int(seed)%len(stacks)]
		n := 10 + rng.IntN(35)
		side := 300 + rng.Float64()*400
		field := geom.Field{Width: side, Height: side}
		pos := topology.Generate(spec, field, n, rng)

		flows := make([]traffic.Flow, 3)
		for i := range flows {
			src := rng.IntN(n)
			dst := (src + 1 + rng.IntN(n-1)) % n
			flows[i] = traffic.Flow{
				ID: i + 1, Src: src, Dst: dst,
				Rate: 2048, PacketBytes: 128,
				StartMin: 2 * time.Second, StartMax: 4 * time.Second,
			}
		}

		sc := Scenario{
			Seed: seed, Field: field, Positions: pos,
			Card: card, Stack: st, Flows: flows,
			Duration: 25 * time.Second,
		}
		indexed, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: indexed run: %v", seed, err)
		}
		sc.LinearMedium = true
		linear, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: linear run: %v", seed, err)
		}
		if got, want := indexed.Fingerprint(), linear.Fingerprint(); got != want {
			t.Fatalf("seed %d (%s, %s, n=%d): indexed fingerprint %s != linear %s",
				seed, spec.Kind, st.Name(), n, got, want)
		}
	}
}
