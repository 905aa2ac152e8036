package main

import (
	"math"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
)

// The oracle computes, from the generated positions and the alarm
// definitions' fields alone, every delivery a correct program must make.
// It deliberately shares no code with the packages under test (alarm,
// rstar, saferegion, pyramid, server): containment, relevance, the
// spatial lookup, continuous enter/exit numbering, the composite severity
// sum and the packed-event layout (PROTOCOL.md) are all re-implemented
// here. A client reports whenever its safe region cannot prove it
// alarm-free, so every transition the positions imply must arrive at the
// tick of the position that implies it.

type oKind uint8

const (
	kOneShot oKind = iota
	kContinuous
	kComposite
	kOther
)

// Packed event layout: bits 0..39 alarm ID, 40..42 transition, 43..63
// payload (occurrence for enter/exit, severity in thousandths).
const (
	trFired    = 0
	trEnter    = 1
	trExit     = 2
	trSeverity = 3
)

func packEvent(id uint64, tr, payload uint64) uint64 {
	return id&(1<<40-1) | (tr&7)<<40 | payload<<43
}

func eventAlarm(ev uint64) uint64 { return ev & (1<<40 - 1) }

type oBox struct{ minX, minY, maxX, maxY float64 }

// contains is closed (inclusive) containment.
func (b oBox) contains(x, y float64) bool {
	return x >= b.minX && x <= b.maxX && y >= b.minY && y <= b.maxY
}

type oFactor struct {
	circle    bool
	cx, cy, r float64
	box       oBox // the rect, or the circle's bounding box
	weight    float64
}

func (f oFactor) contains(x, y float64) bool {
	if f.circle {
		dx, dy := x-f.cx, y-f.cy
		return dx*dx+dy*dy <= f.r*f.r
	}
	return f.box.contains(x, y)
}

type oAlarm struct {
	id        uint64
	kind      oKind
	public    bool
	users     []uint64 // owner and subscribers; unused when public
	box       oBox     // region, or the union of the factor bounds
	factors   []oFactor
	threshold float64
	expiresAt uint64 // composite TTL tick; 0 never expires
}

func (a *oAlarm) relevant(u uint64) bool {
	if a.public {
		return true
	}
	for _, v := range a.users {
		if v == u {
			return true
		}
	}
	return false
}

// severity sums, in factor order, the weights of the factors holding
// the point.
func (a *oAlarm) severity(x, y float64) float64 {
	var s float64
	for _, f := range a.factors {
		if f.contains(x, y) {
			s += f.weight
		}
	}
	return s
}

// oracleAlarms converts installed alarm definitions (with the IDs the
// program assigned) into the oracle's own form.
func oracleAlarms(defs []alarm.Alarm, ids []alarm.ID) []oAlarm {
	out := make([]oAlarm, len(defs))
	for i, d := range defs {
		a := oAlarm{id: uint64(ids[i]), public: d.Scope == alarm.Public}
		a.users = append(a.users, uint64(d.Owner))
		for _, s := range d.Subscribers {
			a.users = append(a.users, uint64(s))
		}
		a.box = oBox{d.Region.MinX, d.Region.MinY, d.Region.MaxX, d.Region.MaxY}
		switch d.Kind {
		case alarm.KindOneShot:
			a.kind = kOneShot
		case alarm.KindContinuous:
			a.kind = kContinuous
		case alarm.KindComposite:
			a.kind = kComposite
			a.threshold = d.Threshold
			a.expiresAt = d.ExpiresAt
			for j, f := range d.Factors {
				of := oFactor{weight: f.Weight}
				if f.Radius > 0 {
					of.circle, of.cx, of.cy, of.r = true, f.Center.X, f.Center.Y, f.Radius
					of.box = oBox{f.Center.X - f.Radius, f.Center.Y - f.Radius, f.Center.X + f.Radius, f.Center.Y + f.Radius}
				} else {
					of.box = oBox{f.Region.MinX, f.Region.MinY, f.Region.MaxX, f.Region.MaxY}
				}
				a.factors = append(a.factors, of)
				if j == 0 {
					a.box = of.box
				} else {
					a.box = oBox{math.Min(a.box.minX, of.box.minX), math.Min(a.box.minY, of.box.minY),
						math.Max(a.box.maxX, of.box.maxX), math.Max(a.box.maxY, of.box.maxY)}
				}
			}
		default:
			a.kind = kOther
		}
		out[i] = a
	}
	return out
}

// bucketGrid maps a point to the alarms whose (closed) box may hold it.
type bucketGrid struct {
	ox, oy, side float64
	cols, rows   int
	cells        [][]int32
}

func newBucketGrid(alarms []oAlarm, side float64) *bucketGrid {
	g := &bucketGrid{side: side}
	if len(alarms) == 0 {
		return g
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, a := range alarms {
		minX, minY = math.Min(minX, a.box.minX), math.Min(minY, a.box.minY)
		maxX, maxY = math.Max(maxX, a.box.maxX), math.Max(maxY, a.box.maxY)
	}
	g.ox, g.oy = minX, minY
	g.cols = int(math.Floor((maxX-minX)/side)) + 1
	g.rows = int(math.Floor((maxY-minY)/side)) + 1
	g.cells = make([][]int32, g.cols*g.rows)
	for i, a := range alarms {
		c0, r0 := g.coord(a.box.minX, a.box.minY)
		c1, r1 := g.coord(a.box.maxX, a.box.maxY)
		for r := r0; r <= r1; r++ {
			for c := c0; c <= c1; c++ {
				g.cells[r*g.cols+c] = append(g.cells[r*g.cols+c], int32(i))
			}
		}
	}
	return g
}

func (g *bucketGrid) coord(x, y float64) (int, int) {
	return int(math.Floor((x - g.ox) / g.side)), int(math.Floor((y - g.oy) / g.side))
}

// at returns the candidate alarm indices for a point (nil outside).
func (g *bucketGrid) at(x, y float64) []int32 {
	c, r := g.coord(x, y)
	if c < 0 || r < 0 || c >= g.cols || r >= g.rows {
		return nil
	}
	return g.cells[r*g.cols+c]
}

// event is one delivery: a packed event to a user at a tick.
type event struct {
	user uint64
	ev   uint64
	tick int
}

// expectedDeliveries runs every user's alarm lifecycles over the trace.
// pos[t][i] is user i+1's position at tick t.
func expectedDeliveries(alarms []oAlarm, pos [][]geom.Point) []event {
	g := newBucketGrid(alarms, 500)
	var out []event
	if len(pos) == 0 {
		return out
	}
	for i := range pos[0] {
		u := uint64(i + 1)
		done := map[int32]bool{}    // fired one-shot and composite alarms
		occur := map[int32]uint64{} // continuous entries so far
		inside := map[int32]bool{}  // continuous alarms the user is in
		for t := range pos {
			x, y := pos[t][i].X, pos[t][i].Y
			for ai, in := range inside {
				if in && !alarms[ai].box.contains(x, y) {
					inside[ai] = false
					out = append(out, event{u, packEvent(alarms[ai].id, trExit, occur[ai]), t})
				}
			}
			for _, ai := range g.at(x, y) {
				a := &alarms[ai]
				if !a.relevant(u) || !a.box.contains(x, y) {
					continue
				}
				switch a.kind {
				case kOneShot:
					if !done[ai] {
						done[ai] = true
						out = append(out, event{u, packEvent(a.id, trFired, 0), t})
					}
				case kContinuous:
					if !inside[ai] {
						inside[ai] = true
						occur[ai]++
						out = append(out, event{u, packEvent(a.id, trEnter, occur[ai]), t})
					}
				case kComposite:
					if done[ai] || (a.expiresAt != 0 && uint64(t) >= a.expiresAt) {
						continue
					}
					if sev := a.severity(x, y); sev >= a.threshold {
						done[ai] = true
						out = append(out, event{u, packEvent(a.id, trSeverity, uint64(math.Round(sev*1000))), t})
					}
				}
			}
		}
	}
	return out
}
