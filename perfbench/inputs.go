package main

import (
	"fmt"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/mobility"
	"github.com/sabre-geo/sabre/internal/pyramid"
	"github.com/sabre-geo/sabre/internal/roadnet"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/sim"
)

// Fleet shape shared by every workload: the paper's densities (10
// vehicles and 10 alarms per km²) on a 10 km × 10 km road network,
// sampled once per second.
const (
	fleetUsers  = 1000
	fleetAlarms = 1000
	citySide    = 10000.0
	traceTicks  = 900 // one round replays the whole trace: 15 simulated minutes
	warmupTicks = 100 // untimed: the public-bitmap cache fills lazily
	tickSeconds = 1.0
	// citySeed fixes the road network and the alarm table: the workload
	// seed drives the fleet's trips through the same city. Redrawing the
	// alarm map with every seed moved report counts by up to ±15%,
	// swamping the run-to-run spread the bounds have to cover.
	citySeed = 1
	gateways = 2 // loopback connections, one driving goroutine each
)

// workload is one traffic mix of the benchmark.
type workload struct {
	name string
	// lifecycle is the alarm-kind mix; the rest are the paper's one-shot
	// alarms (10% public, private:shared 2:1).
	lifecycle sim.LifecycleMix
	// bitmap selects half PBSR (h=5) / half GBSR (h=1) clients with the
	// public-bitmap precompute on; otherwise every client is MWPSR.
	bitmap bool
	// batch sends one UpdateBatch per connection per tick instead of one
	// PositionUpdate frame per report.
	batch bool
	// cluster serves the fleet from a two-shard durable, replicated
	// cluster.TCPCluster instead of one memory-only server.TCPServer.
	cluster bool
}

var workloads = []workload{
	{name: "mwpsr-single"},
	{
		name:      "bitmap-lifecycle-batch",
		lifecycle: sim.LifecycleMix{Continuous: 0.15, Composite: 0.05},
		bitmap:    true,
		batch:     true,
	},
	{name: "cluster-durable", cluster: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything generated from the seed before anything is timed.
// The program under test only ever sees the alarms (installed) and the
// positions (reported by the clients).
type inputs struct {
	wl     workload
	alarms []alarm.Alarm
	// pos[t][i] is user i+1's position at tick t.
	pos    [][]geom.Point
	engine server.Config
}

func buildInputs(wl workload, seed int64) (*inputs, error) {
	cfg := sim.WorkloadConfig{
		Seed:              citySeed,
		Vehicles:          fleetUsers,
		DurationTicks:     traceTicks,
		NumAlarms:         fleetAlarms,
		PublicFraction:    0.10,
		SharedSubscribers: 2,
		AlarmMinSide:      100,
		AlarmMaxSide:      400,
		Network:           roadnet.Config{Side: citySide, Spacing: 500, Jitter: 0.25, DropProb: 0.12, Seed: citySeed},
		Lifecycle:         wl.lifecycle,
	}
	w, err := sim.BuildWorkload(cfg)
	if err != nil {
		return nil, fmt.Errorf("build workload: %w", err)
	}
	mob, err := mobility.NewSimulator(w.Net, mobility.DefaultConfig(fleetUsers, seed))
	if err != nil {
		return nil, fmt.Errorf("mobility: %w", err)
	}
	pos := make([][]geom.Point, traceTicks)
	for t := range pos {
		mob.Step()
		pos[t] = make([]geom.Point, fleetUsers)
		mob.Positions(pos[t])
	}
	params := pyramid.DefaultParams(5)
	params.MaxBits = 2048
	return &inputs{
		wl:     wl,
		alarms: w.Alarms,
		pos:    pos,
		engine: server.Config{
			// The universe strictly encloses the road network, as in the
			// simulation harness.
			Universe:                w.Net.Bounds().Expand(50),
			CellAreaM2:              2.5e6,
			PyramidParams:           params,
			MaxSpeed:                mob.MaxSpeed(),
			TickSeconds:             tickSeconds,
			PrecomputePublicBitmaps: wl.bitmap,
			Costs:                   metrics.DefaultCosts(),
		},
	}, nil
}

// userHours is the simulated time one round covers, summed over users.
func userHours() float64 {
	return float64(fleetUsers) * traceTicks * tickSeconds / 3600
}
