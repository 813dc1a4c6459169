// Gridplanning reproduces the Figure 3 scenario end to end: a utility
// publishes a DP consumption matrix with STPT, and a downstream planner —
// who never sees raw data — uses MBR range estimates over the *release* to
// relocate a mobile battery next to the renewable-production hotspot and
// rewire consumer connections.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/powergrid"
	"repro/stpt"
)

func main() {
	// A TX-like dataset with households clustered under a normal layout;
	// the top-right quadrant is where the production hotspot will sit.
	data := stpt.GenerateDataset(stpt.SpecTX, stpt.LayoutUniform, 16, 16, 72, 3)
	// Inject a strong production surplus in the top-right quadrant by
	// scaling those households' readings (production is modelled as
	// consumption magnitude in the released matrix).
	for _, s := range data.Series {
		if s.Location.X >= 12 && s.Location.Y >= 12 {
			for i := range s.Values {
				s.Values[i] = math.Min(s.Values[i]*6, stpt.SpecTX.MaxKWh)
			}
		}
	}

	cfg := stpt.DefaultConfig()
	cfg.TTrain = 36
	cfg.Depth = 3
	cfg.WindowSize = 4
	cfg.EmbedDim = 8
	cfg.Hidden = 8
	cfg.Train.Epochs = 5
	cfg.ClipFactor = stpt.SpecTX.ClipFactor
	res, err := stpt.RunContext(context.Background(), data, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("utility published a %dx%dx%d DP matrix at ε=%.0f\n",
		res.Sanitized.Cx, res.Sanitized.Cy, res.Sanitized.Ct, cfg.EpsTotal())

	// The planner's network: one battery parked in the low-production
	// south-west, producers scattered, two of them at the hotspot.
	net := powergrid.NewNetwork()
	net.AddBattery("B1", 2.5, 2.5)
	net.AddConsumer("C5", 2.0, 2.0, true)
	net.AddConsumer("C6", 3.0, 3.0, true)
	net.AddConsumer("C4", 13.0, 13.5, true)
	net.AddConsumer("C10", 14.5, 14.0, true)
	net.AddConsumer("C1", 5.0, 8.0, false)
	net.AddConsumer("C2", 9.0, 4.0, false)
	net.AssignNearest()
	fmt.Printf("initial assignment: %v (wire length %.1f)\n", assignmentString(net), net.TotalWireLength())

	// Rebalance using only the released matrix.
	moves := net.Rebalance(res.Sanitized, 0, res.Sanitized.Ct-1, 1.0)
	for _, mv := range moves {
		fmt.Printf("battery %s moved (%.1f,%.1f) → (%.1f,%.1f); claims %v (est. energy %.1f kWh), releases %v\n",
			mv.BatteryID, mv.From.X, mv.From.Y, mv.To.X, mv.To.Y, mv.Gained, mv.Energy, mv.Lost)
	}
	if len(moves) == 0 {
		fmt.Println("no beneficial relocation found")
	}
	fmt.Printf("final assignment: %v\n", assignmentString(net))

	// Sanity: compare against planning on the raw (non-private) matrix.
	rawNet := powergrid.NewNetwork()
	rawNet.AddBattery("B1", 2.5, 2.5)
	for _, c := range net.Consumers {
		rawNet.AddConsumer(c.ID, c.Pos.X, c.Pos.Y, c.Producer)
	}
	rawNet.AssignNearest()
	rawNet.Rebalance(res.Truth, 0, res.Truth.Ct-1, 1.0)
	priv := net.Batteries[0].Pos
	raw := rawNet.Batteries[0].Pos
	fmt.Printf("battery position from DP release (%.1f,%.1f) vs from raw data (%.1f,%.1f): distance %.2f cells\n",
		priv.X, priv.Y, raw.X, raw.Y, priv.Dist(raw))

	// Finally, check the revised connection is electrically feasible with
	// a DC power flow: the battery bus absorbs the hotspot's estimated
	// surplus over two feeder lines.
	surplus := 0.0
	if len(moves) > 0 {
		surplus = moves[0].Energy / float64(res.Sanitized.Ct) // per-interval
	}
	flow := &powergrid.FlowNetwork{
		Buses: []*powergrid.Bus{
			{ID: "battery", InjectionKW: -surplus},
			{ID: "C4", InjectionKW: surplus * 0.55},
			{ID: "C10", InjectionKW: surplus * 0.45},
		},
		Lines: []*powergrid.Line{
			{From: "C4", To: "battery", Reactance: 0.12, LimitKW: surplus},
			{From: "C10", To: "battery", Reactance: 0.15, LimitKW: surplus},
		},
	}
	flows, err := flow.Solve()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DC power flow of the revised feeders (surplus %.1f kWh/interval):\n", surplus)
	for _, f := range flows {
		status := "ok"
		if f.Overloaded {
			status = "OVERLOADED"
		}
		fmt.Printf("  %s → %s: %.1f kW [%s]\n", f.Line.From, f.Line.To, f.PowerKW, status)
	}
	if powergrid.Feasible(flows) {
		fmt.Println("placement is electrically feasible")
	}
}

func assignmentString(n *powergrid.Network) map[string]string { return n.Assignment }
