package main

import (
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
)

// trace builds pos[t][i] from one path per user.
func trace(paths ...[]geom.Point) [][]geom.Point {
	pos := make([][]geom.Point, len(paths[0]))
	for t := range pos {
		for _, p := range paths {
			pos[t] = append(pos[t], p[t])
		}
	}
	return pos
}

func oracleFor(defs []alarm.Alarm, pos [][]geom.Point) []event {
	ids := make([]alarm.ID, len(defs))
	for i := range ids {
		ids[i] = alarm.ID(i + 1)
	}
	return expectedDeliveries(oracleAlarms(defs, ids), pos)
}

func wantEvents(t *testing.T, got []event, want ...event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d events %v, want %v", len(got), got, want)
	}
	set := map[event]bool{}
	for _, e := range got {
		set[e] = true
	}
	for _, e := range want {
		if !set[e] {
			t.Fatalf("missing %s in %v", describe(e), got)
		}
	}
}

func TestOracleBoundaryIsInside(t *testing.T) {
	defs := []alarm.Alarm{{Scope: alarm.Private, Owner: 1, Region: geom.Rect{MinX: 100, MinY: 100, MaxX: 200, MaxY: 200}}}
	// Tick 2 lands exactly on the right edge; tick 1 is just outside.
	path := []geom.Point{geom.Pt(250, 150), geom.Pt(200.001, 150), geom.Pt(200, 150), geom.Pt(150, 150)}
	wantEvents(t, oracleFor(defs, trace(path)), event{1, packEvent(1, trFired, 0), 2})
}

func TestOracleContinuousReentryIsNumberedTwo(t *testing.T) {
	defs := []alarm.Alarm{{Scope: alarm.Private, Owner: 1, Kind: alarm.KindContinuous, Region: geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}}}
	path := []geom.Point{geom.Pt(-5, 5), geom.Pt(5, 5), geom.Pt(6, 5), geom.Pt(15, 5), geom.Pt(10, 5), geom.Pt(20, 5)}
	wantEvents(t, oracleFor(defs, trace(path)),
		event{1, packEvent(1, trEnter, 1), 1},
		event{1, packEvent(1, trExit, 1), 3},
		event{1, packEvent(1, trEnter, 2), 4},
		event{1, packEvent(1, trExit, 2), 5},
	)
}

func TestOracleCompositeNeedsBothFactors(t *testing.T) {
	target := geom.Pt(1000, 1000)
	defs := []alarm.Alarm{{
		Scope: alarm.Private, Owner: 1, Kind: alarm.KindComposite, Threshold: 1.0,
		Factors: []alarm.Factor{
			{Region: geom.RectAround(target, 400), Weight: 0.6},
			{Center: target, Radius: 100, Weight: 0.6},
		},
	}}
	// Ticks 0-1 are inside the rect factor only (severity 0.6 < 1.0),
	// tick 1 is in the rect's corner, outside the circle's reach; tick 2
	// is within 100 m of the target, where both factors hold.
	path := []geom.Point{geom.Pt(850, 1000), geom.Pt(1190, 1190), geom.Pt(1000, 1099), geom.Pt(1000, 1000)}
	wantEvents(t, oracleFor(defs, trace(path)), event{1, packEvent(1, trSeverity, 1200), 2})
}

func TestOraclePublicAlarmFiresOncePerUser(t *testing.T) {
	defs := []alarm.Alarm{{Scope: alarm.Public, Owner: 1, Region: geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}}}
	in, out := geom.Pt(5, 5), geom.Pt(50, 50)
	pos := trace(
		[]geom.Point{in, out, in, in},
		[]geom.Point{out, in, out, in},
		[]geom.Point{out, out, out, out},
	)
	wantEvents(t, oracleFor(defs, pos),
		event{1, packEvent(1, trFired, 0), 0},
		event{2, packEvent(1, trFired, 0), 1},
	)
}

func TestOraclePrivateAlarmIgnoresOtherUsers(t *testing.T) {
	defs := []alarm.Alarm{{Scope: alarm.Shared, Owner: 2, Subscribers: []alarm.UserID{2, 3}, Region: geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}}}
	in := geom.Pt(5, 5)
	pos := trace([]geom.Point{in}, []geom.Point{in}, []geom.Point{in})
	wantEvents(t, oracleFor(defs, pos),
		event{2, packEvent(1, trFired, 0), 0},
		event{3, packEvent(1, trFired, 0), 0},
	)
}
