package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/cluster"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/pyramid"
	"github.com/sabre-geo/sabre/internal/saferegion"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/wire"
)

// Tracing. Spans are recorded from the benchmark's own files around the
// calls into each layer, kept in memory and summarised when the run
// ends. Over TCP the load records frame round-trip spans and the
// Client.Tick / Client.Handle time around them. The recorded report
// stream is then replayed in order into a fresh in-process instance with
// spans around the engine and cluster calls; just before each of the
// first timed reports reaches the engine, isolated calls on the same
// inputs time the alarm index, safe-region and pyramid layers. Wire
// encode and decode are timed on the recorded frames afterwards.

// frameRec is one report frame of a traced round.
type frameRec struct {
	tick, phase, gw int
	seq             int // order within the gateway
	req             wire.Message
	reports         int
	rtt             int64 // ns; 0 for a redirected send
	redirected      bool
}

// gwRec is one gateway's share of the trace; each gateway writes only
// its own, so the two driving goroutines never share a recorder.
type gwRec struct {
	frames                    []frameRec
	clientTickNs, clientTicks int64
	handleNs                  int64
}

type recorder struct {
	gw [gateways]gwRec
}

func (rec *recorder) addClientTick(g int, d time.Duration) {
	rec.gw[g].clientTickNs += d.Nanoseconds()
	rec.gw[g].clientTicks++
}

func (rec *recorder) addFrame(g *gateway, t, phase int, m wire.Message, reports int, rtt, handle time.Duration, redirected bool) {
	gr := &rec.gw[g.idx]
	gr.frames = append(gr.frames, frameRec{
		tick: t, phase: phase, gw: g.idx, seq: len(gr.frames), req: m, reports: reports,
		rtt: rtt.Nanoseconds(), redirected: redirected,
	})
	gr.handleNs += handle.Nanoseconds()
}

// ordered returns every recorded frame in replay order: by tick, then
// phase, then connection, then send order.
func (rec *recorder) ordered() []frameRec {
	var all []frameRec
	for g := range rec.gw {
		all = append(all, rec.gw[g].frames...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.tick != b.tick {
			return a.tick < b.tick
		}
		if a.phase != b.phase {
			return a.phase < b.phase
		}
		if a.gw != b.gw {
			return a.gw < b.gw
		}
		return a.seq < b.seq
	})
	return all
}

// replayStats are the spans and counts of the in-process replay.
type replayStats struct {
	reports     int
	updateNs    []int64 // per engine call in timed ticks
	frontendNs  []int64 // measured RTT minus replayed engine time
	setTickNs   []int64
	handoffNs   []int64
	tickReplNs  []int64
	replies     []wire.Message // for wire timing
	isolated    isolatedStats
	allocReport float64
	engines     metrics.Snapshot // summed over the replay's engines
}

type isolatedStats struct {
	n                         int
	evalNs, relNs             int64
	candidates, accesses, rel int64
	rectNs, bitmapNs          []int64
	encodeNs, decodeNs        []int64
	rectArea                  float64
	bits                      int64
	coverage                  float64
	wireEncNs, wireDecNs      int64
	wireFrames                int64
}

// isolateLimit bounds the reports given isolated layer calls, so the
// traced run's length stays predictable.
const isolateLimit = 4000

// replayInProcess feeds the recorded frames, in order and without TCP,
// into a fresh instance built the same way as the measured one, except
// that a cluster's stores sync every commit: the WAL's fsync layer is
// measured here, while the timed rounds run with fsync off.
func replayInProcess(in *inputs, frames []frameRec, dir string) (*replayStats, error) {
	st := &replayStats{}
	var (
		eng *server.Engine
		cl  *cluster.Cluster
		err error
	)
	engineOf := func(shard int) *server.Engine {
		if cl == nil {
			return eng
		}
		return cl.Engine(shard)
	}
	if in.wl.cluster {
		cl, err = cluster.New(cluster.Config{
			Shards: 2, Engine: in.engine, DataDir: dir, Store: store.Options{Fsync: true},
			Replicas: 1, PromoteAfter: 4,
		})
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		if _, err := cl.InstallAlarms(in.alarms); err != nil {
			return nil, err
		}
	} else {
		if eng, err = server.New(in.engine); err != nil {
			return nil, err
		}
		if _, err := eng.InstallAlarms(in.alarms); err != nil {
			return nil, err
		}
	}
	for i := 0; i < fleetUsers; i++ {
		shard := 0
		if cl != nil {
			shard, _ = cl.PartitionMap().Locate(in.pos[0][i])
		}
		s, h := strategyOf(in.wl, i)
		if err := engineOf(shard).Register(wire.Register{User: uint64(i + 1), Strategy: s, MaxHeight: h}); err != nil {
			return nil, err
		}
	}

	iso := &isolator{in: in}
	var isoMallocs uint64
	handoff := map[[2]int]int64{} // (tick, user) -> handoff ns of its redirect
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	next := 0
	for t := 0; t < traceTicks; t++ {
		start := time.Now()
		if cl != nil {
			err = cl.SetTick(uint64(t))
		} else {
			err = eng.SetTick(uint64(t))
		}
		if err != nil {
			return nil, err
		}
		st.setTickNs = append(st.setTickNs, time.Since(start).Nanoseconds())
		for ; next < len(frames) && frames[next].tick == t; next++ {
			f := frames[next]
			shard := f.gw
			if f.redirected {
				upd := f.req.(wire.PositionUpdate)
				start = time.Now()
				rec, ok, err := engineOf(shard).ExportSession(alarm.UserID(upd.User))
				if err != nil || !ok {
					return nil, fmt.Errorf("replay export user %d: ok=%v err=%v", upd.User, ok, err)
				}
				if _, err := engineOf(1 - shard).ImportSession(rec); err != nil {
					return nil, fmt.Errorf("replay import user %d: %w", upd.User, err)
				}
				d := time.Since(start).Nanoseconds()
				st.handoffNs = append(st.handoffNs, d)
				handoff[[2]int{t, int(upd.User)}] = d
				continue
			}
			if t >= warmupTicks && iso.s.n < isolateLimit {
				// Against the registry as the engine is about to see
				// this frame; its allocations are left out of the
				// engine's.
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				iso.frame(f, engineOf(shard))
				runtime.ReadMemStats(&ms)
				isoMallocs += ms.Mallocs - before
			}
			var reply wire.Message
			start = time.Now()
			switch m := f.req.(type) {
			case wire.PositionUpdate:
				var out []wire.Message
				out, err = engineOf(shard).HandleUpdate(m)
				if len(out) > 0 {
					reply = out[len(out)-1]
				}
			case wire.UpdateBatch:
				reply, err = engineOf(shard).HandleUpdateBatch(m)
			}
			d := time.Since(start).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("replay tick %d: %w", t, err)
			}
			st.reports += f.reports
			if t < warmupTicks {
				continue
			}
			st.updateNs = append(st.updateNs, d)
			if u, ok := f.req.(wire.PositionUpdate); ok {
				d += handoff[[2]int{t, int(u.User)}]
			}
			st.frontendNs = append(st.frontendNs, f.rtt-d)
			if len(st.replies) < isolateLimit && reply != nil {
				st.replies = append(st.replies, reply)
			}
		}
		if cl != nil {
			start = time.Now()
			cl.TickReplication(t)
			st.tickReplNs = append(st.tickReplNs, time.Since(start).Nanoseconds())
		}
	}
	runtime.ReadMemStats(&ms)
	if st.reports > 0 {
		st.allocReport = float64(ms.Mallocs-mallocs-isoMallocs) / float64(st.reports)
	}
	if cl != nil {
		for _, s := range cl.PartitionMap().Shards() {
			if e := cl.Engine(s); e != nil {
				addSnapshot(&st.engines, e.Metrics().Snapshot())
			}
		}
	} else {
		st.engines = eng.Metrics().Snapshot()
	}
	st.isolated = iso.s
	timeWireFrames(&st.isolated, frames, st.replies)
	return st, nil
}

// isolator times single layer calls on the inputs of the first timed
// reports, each just before the replay hands the report's frame to the
// engine, so the registry holds the fired marks that report met.
type isolator struct {
	in   *inputs
	s    isolatedStats
	trig []alarm.ID
	raw  []uint64
	rel  []alarm.Alarm
}

func (iso *isolator) frame(f frameRec, eng *server.Engine) {
	s := &iso.s
	var ups []wire.PositionUpdate
	switch m := f.req.(type) {
	case wire.PositionUpdate:
		ups = []wire.PositionUpdate{m}
	case wire.UpdateBatch:
		ups = m.Updates
	}
	reg, g := eng.Registry(), eng.Grid()
	for _, u := range ups {
		if s.n >= isolateLimit {
			return
		}
		s.n++
		user := alarm.UserID(u.User)
		start := time.Now()
		var cand int
		var acc uint64
		iso.trig, iso.raw, cand, acc = reg.EvaluateInto(u.Pos, user, iso.trig[:0], iso.raw[:0])
		s.evalNs += time.Since(start).Nanoseconds()
		s.candidates += int64(cand)
		s.accesses += int64(acc)

		cell := g.CellRect(g.Locate(u.Pos))
		start = time.Now()
		iso.rel, iso.raw, _ = reg.RelevantInInto(cell, user, iso.rel[:0], iso.raw[:0])
		s.relNs += time.Since(start).Nanoseconds()
		s.rel += int64(len(iso.rel))
		rects := obstacles(iso.rel, cell)

		start = time.Now()
		rr := saferegion.ComputeRect(u.Pos, cell, rects, saferegion.RectOptions{})
		s.rectNs = append(s.rectNs, time.Since(start).Nanoseconds())
		s.rectArea += rr.Rect.Area() / 1e6

		params := iso.in.engine.PyramidParams
		if _, h := strategyOf(iso.in.wl, int(u.User)-1); h > 0 {
			params.Height = int(h)
		}
		start = time.Now()
		_, err := saferegion.ComputeBitmap(cell, params, rects, nil)
		s.bitmapNs = append(s.bitmapNs, time.Since(start).Nanoseconds())
		if err != nil {
			continue
		}
		start = time.Now()
		bm, err := pyramid.Encode(cell, params, func(r geom.Rect) pyramid.Coverage { return pyramid.CoverageOf(r, rects) })
		s.encodeNs = append(s.encodeNs, time.Since(start).Nanoseconds())
		if err != nil {
			continue
		}
		start = time.Now()
		region, err := pyramid.Decode(bm)
		s.decodeNs = append(s.decodeNs, time.Since(start).Nanoseconds())
		if err != nil {
			continue
		}
		s.bits += int64(bm.SizeBits())
		s.coverage += coverage(region, cell)
	}
}

// timeWireFrames times wire encode and decode of the first timed request
// frames and of the replies; unlike the layers above, their cost does not
// depend on the program's state.
func timeWireFrames(s *isolatedStats, frames []frameRec, replies []wire.Message) {
	for _, f := range frames {
		if f.tick < warmupTicks || f.redirected {
			continue
		}
		if s.wireFrames >= isolateLimit {
			break
		}
		timeWire(s, f.req)
	}
	for _, m := range replies {
		timeWire(s, m)
	}
}

func timeWire(s *isolatedStats, m wire.Message) {
	start := time.Now()
	buf := wire.Encode(m)
	s.wireEncNs += time.Since(start).Nanoseconds()
	start = time.Now()
	_, err := wire.Decode(buf)
	s.wireDecNs += time.Since(start).Nanoseconds()
	if err == nil {
		s.wireFrames++
	}
}

// obstacles is the rectangle set a safe region must avoid: alarm
// regions, and a composite alarm's factor bounds.
func obstacles(rel []alarm.Alarm, cell geom.Rect) []geom.Rect {
	var out []geom.Rect
	for _, a := range rel {
		if a.Kind == alarm.KindComposite {
			for _, f := range a.Factors {
				if b := f.Bound(); b.Intersects(cell) {
					out = append(out, b)
				}
			}
			continue
		}
		out = append(out, a.Region)
	}
	return out
}

// coverage estimates the share of the cell a decoded region proves safe
// from a 16×16 lattice of sample points.
func coverage(r *pyramid.Region, cell geom.Rect) float64 {
	const k = 16
	in := 0
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			p := geom.Pt(cell.MinX+(float64(i)+0.5)*cell.Width()/k, cell.MinY+(float64(j)+0.5)*cell.Height()/k)
			if r.Contains(p) {
				in++
			}
		}
	}
	return float64(in) / (k * k)
}
