package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/client"
	"github.com/sabre-geo/sabre/internal/cluster"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/transport"
	"github.com/sabre-geo/sabre/internal/wire"
)

// ioTimeout bounds every read and write on a load connection, so a
// report the program never answers fails the run instead of hanging it.
const ioTimeout = 30 * time.Second

// program is one instance of the system under test behind its real TCP
// front end.
type program struct {
	eng   *server.Engine // single server
	srv   *server.TCPServer
	cl    *cluster.Cluster // two-shard cluster
	tcp   *cluster.TCPCluster
	addrs []string // listener per connection index
	dir   string
	ids   []alarm.ID
	serve chan error
}

// startProgram constructs the program, installs the alarms and starts
// its listeners.
func startProgram(in *inputs, dir string) (*program, error) {
	p := &program{dir: dir, serve: make(chan error, 1)}
	var err error
	if in.wl.cluster {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		p.cl, err = cluster.New(cluster.Config{
			Shards:       2,
			Engine:       in.engine,
			DataDir:      dir,
			Store:        store.Options{}, // fsync off: see README "Workloads"
			Replicas:     1,
			PromoteAfter: 4,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		if p.ids, err = p.cl.InstallAlarms(in.alarms); err != nil {
			p.cl.Close()
			return nil, fmt.Errorf("install alarms: %w", err)
		}
		if p.tcp, err = cluster.NewTCP(p.cl, []string{"127.0.0.1:0", "127.0.0.1:0"}, nil, 0); err != nil {
			p.cl.Close()
			return nil, err
		}
		p.addrs = p.tcp.Addrs()
		go func() { p.serve <- p.tcp.Serve() }()
		return p, nil
	}
	if p.eng, err = server.New(in.engine); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if p.ids, err = p.eng.InstallAlarms(in.alarms); err != nil {
		return nil, fmt.Errorf("install alarms: %w", err)
	}
	if p.srv, err = server.NewTCPServerIdle(p.eng, "127.0.0.1:0", nil, 0); err != nil {
		return nil, err
	}
	addr := p.srv.Addr().String()
	p.addrs = []string{addr, addr}
	go func() { p.serve <- p.srv.Serve() }()
	return p, nil
}

func (p *program) engines() []*server.Engine {
	if p.cl == nil {
		return []*server.Engine{p.eng}
	}
	var out []*server.Engine
	for _, s := range p.cl.PartitionMap().Shards() {
		if e := p.cl.Engine(s); e != nil {
			out = append(out, e)
		}
	}
	return out
}

// beginTick and endTick are the tick-boundary calls the simulation
// harness and the alarmserver binary make.
func (p *program) beginTick(t int) error {
	if p.cl != nil {
		return p.cl.SetTick(uint64(t))
	}
	return p.eng.SetTick(uint64(t))
}

func (p *program) endTick(t int) {
	if p.cl != nil {
		p.cl.TickReplication(t)
	}
}

func (p *program) close() error {
	var err error
	if p.srv != nil {
		err = p.srv.Close()
	}
	if p.tcp != nil {
		err = errors.Join(p.tcp.Close(), p.cl.Close())
	}
	<-p.serve // Serve returns once its listeners are closed
	if p.dir != "" {
		err = errors.Join(err, os.RemoveAll(p.dir))
	}
	return err
}

// countConn counts the bytes the load side of a connection reads,
// frame headers included.
type countConn struct {
	net.Conn
	rd int64
}

func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.rd += int64(n)
	return n, err
}

// redirected is a report answered with wire.Redirect, waiting to be
// resent on the owning shard's connection.
type redirected struct {
	user     int
	upd      wire.PositionUpdate
	firstLeg time.Duration
}

// gateway drives one connection: it ticks the clients it serves, sends
// their reports with one frame in flight, and hands every reply to the
// client it belongs to.
type gateway struct {
	idx   int
	cc    *countConn
	conn  transport.Conn
	users []int // indices of the users this connection serves
	// out collects this tick's reports redirected to the other shard; in
	// holds the ones redirected here, resent in the tick's second phase.
	out, in []redirected
	batch   []wire.PositionUpdate

	// Whole-round counts.
	reportsSent   int   // report frames or batch entries written, resends included
	answered      int   // reports answered with monitoring state
	framesSent    int   // frames written after setup
	framesRecv    int   // frames read after setup
	redirects     int   // reports answered with wire.Redirect
	refired       int   // AlarmFired events the client already held
	batchOverhead int64 // BatchReply framing bytes around the inner messages
	deliveries    []event
	// Timed ticks only.
	timedAnswered int
	rtts          []int64 // ns per frame
}

// round is one complete replay of the trace against a fresh program.
type round struct {
	in      *inputs
	prog    *program
	gws     [gateways]*gateway
	clients []*client.Client
	mets    []metrics.Client
	timed   bool
	rec     *recorder // nil unless traced
}

// roundResult is what one round measured.
type roundResult struct {
	setup       time.Duration   // of the program the trace runs against
	setups      []time.Duration // every set-up of the round, setup included
	timedWall   time.Duration
	timedCPU    time.Duration
	timedAllocs uint64
	// stolen is the share of the host's CPU time the hypervisor stole
	// during the timed ticks, roundStolen from the start of set-up to
	// the last timed tick.
	stolen, roundStolen float64
	answered            int
	timedAnswered       int
	timedFrames         int
	probes              uint64
	rtts                []int64
	heapPerUser         float64
	// Count-derived, over the whole trace.
	reportsSent int
	downBytes   int64
	energy      float64
	redirects   int
	refired     int
	frames      int
	deliveries  []event
	ids         []alarm.ID
	engines     metrics.Snapshot // summed over engines
}

// stealSince returns the share of the host's CPU time the hypervisor
// stole since hostStolen returned steal0 and total0.
func stealSince(steal0, total0 uint64) float64 {
	steal, total := hostStolen()
	if total <= total0 {
		return 0
	}
	return float64(steal-steal0) / float64(total-total0)
}

// hostStolen reads the machine-wide CPU time counters of /proc/stat
// (USER_HZ ticks): steal, the time the hypervisor ran something else
// while a vCPU wanted to run, and the total over every state.
func hostStolen() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user and nice
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle also frees what sync.Pools held
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func strategyOf(wl workload, i int) (wire.Strategy, uint8) {
	if !wl.bitmap {
		return wire.StrategyMWPSR, 0
	}
	if i%2 == 0 {
		return wire.StrategyPBSR, 5
	}
	return wire.StrategyPBSR, 1 // GBSR: a one-level pyramid
}

// newGateways allocates the connection state once per run, so the RTT
// buffers (sized for the worst case) sit in the heap baseline.
func newGateways() [gateways]*gateway {
	var gws [gateways]*gateway
	for g := range gws {
		gws[g] = &gateway{idx: g, rtts: make([]int64, 0, (traceTicks-warmupTicks)*fleetUsers)}
	}
	return gws
}

func (g *gateway) reset() {
	rtts := g.rtts[:0]
	*g = gateway{idx: g.idx, rtts: rtts}
}

// setupsPerRound is how many times a round builds the program and
// enrolls the fleet: set-up takes a few milliseconds, so one sample per
// round would leave its median at the mercy of a single steal pause.
const setupsPerRound = 4

// runRound replays the whole trace once against a fresh program, after
// timing setupsPerRound-1 more set-ups of their own.
func runRound(in *inputs, gws [gateways]*gateway, dataDir string, rec *recorder) (*roundResult, error) {
	r := &round{in: in, gws: gws, rec: rec}
	for _, g := range gws {
		g.reset()
	}
	res := &roundResult{}
	steal0, total0 := hostStolen()
	for i := 1; i < setupsPerRound; i++ {
		d, err := timeSetup(in, dataDir)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		res.setups = append(res.setups, d)
	}
	base := liveHeap()
	r.mets = make([]metrics.Client, fleetUsers)
	r.clients = make([]*client.Client, fleetUsers)
	for i := range r.clients {
		s, _ := strategyOf(in.wl, i)
		r.clients[i] = client.New(uint64(i+1), s, &r.mets[i])
	}

	t0 := time.Now()
	prog, err := startProgram(in, dataDir)
	if err != nil {
		return nil, err
	}
	r.prog = prog
	defer func() {
		for _, g := range gws {
			if g.cc != nil {
				g.cc.Close()
			}
		}
	}()
	if err := r.enroll(); err != nil {
		prog.close()
		return nil, fmt.Errorf("enroll: %w", err)
	}
	res.setup = time.Since(t0)
	res.setups = append(res.setups, res.setup)
	res.ids = prog.ids

	if err := r.replay(res); err != nil {
		prog.close()
		return nil, err
	}
	res.roundStolen = stealSince(steal0, total0)

	// Count-derived figures and the live heap, before teardown.
	for i := range r.mets {
		res.energy += r.mets[i].Energy(metrics.DefaultEnergy())
		res.probes += r.mets[i].Probes
	}
	r.clients, r.mets = nil, nil
	if end := liveHeap(); end > base {
		res.heapPerUser = float64(end-base) / fleetUsers
	}
	for _, e := range prog.engines() {
		addSnapshot(&res.engines, e.Metrics().Snapshot())
	}
	for _, g := range gws {
		res.reportsSent += g.reportsSent
		res.answered += g.answered
		res.timedAnswered += g.timedAnswered
		res.redirects += g.redirects
		res.refired += g.refired
		res.frames += g.framesSent + g.framesRecv
		res.deliveries = append(res.deliveries, g.deliveries...)
		res.rtts = append(res.rtts, g.rtts...)
	}
	res.timedFrames = len(res.rtts)
	// The heartbeat echo read during set-up is benchmark-only traffic.
	hb := wire.EncodedSize(wire.Heartbeat{Nonce: 1})
	var payload int64
	for _, g := range gws {
		res.downBytes += g.cc.rd - int64(4+hb)
		payload += g.cc.rd - int64(4+hb) - 4*int64(g.framesRecv) - g.batchOverhead
	}
	if err := prog.close(); err != nil {
		return nil, fmt.Errorf("close program: %w", err)
	}
	// Cross-check the load's own counts against the program's counters.
	// A redirected report is answered by the front end before any engine
	// sees it, so engines count it only once it is resent.
	if up := res.engines.UplinkMessages; uint64(res.reportsSent-res.redirects) != up {
		return nil, fmt.Errorf("cross-check: %d reports sent, %d redirected, engines counted %d", res.reportsSent, res.redirects, up)
	}
	if down := res.engines.DownlinkBytes - gateways*uint64(hb); uint64(payload) != down {
		return nil, fmt.Errorf("cross-check: %d payload bytes received, engines counted %d downlink bytes", payload, down)
	}
	return res, nil
}

// timeSetup builds the program and enrolls the fleet as a round does
// before its trace, then tears the program down.
func timeSetup(in *inputs, dir string) (time.Duration, error) {
	r := &round{in: in}
	for g := range r.gws {
		r.gws[g] = &gateway{idx: g}
	}
	runtime.GC() // as before the round's own set-up
	t0 := time.Now()
	prog, err := startProgram(in, dir)
	if err != nil {
		return 0, err
	}
	r.prog = prog
	err = r.enroll()
	d := time.Since(t0)
	err = errors.Join(err, prog.close())
	for _, g := range r.gws {
		if g.cc != nil {
			g.cc.Close()
		}
	}
	return d, err
}

// enroll dials the connections, registers every user with wire.Register
// and waits for a heartbeat echo per connection, which proves the front
// end has processed every registration before it.
func (r *round) enroll() error {
	in := r.in
	for g, gw := range r.gws {
		nc, err := net.Dial("tcp", r.prog.addrs[g])
		if err != nil {
			return err
		}
		gw.cc = &countConn{Conn: nc}
		gw.conn = transport.NewTCPDeadline(gw.cc, ioTimeout, ioTimeout)
	}
	for i := 0; i < fleetUsers; i++ {
		g := i % gateways
		if r.prog.cl != nil {
			// Enroll on the shard that owns the first position.
			g, _ = r.prog.cl.PartitionMap().Locate(in.pos[0][i])
		}
		r.gws[g].users = append(r.gws[g].users, i)
	}
	for _, gw := range r.gws {
		for _, i := range gw.users {
			s, h := strategyOf(in.wl, i)
			if err := gw.conn.Send(wire.Register{User: uint64(i + 1), Strategy: s, MaxHeight: h}); err != nil {
				return err
			}
		}
		if err := gw.conn.Send(wire.Heartbeat{Nonce: 1}); err != nil {
			return err
		}
	}
	for _, gw := range r.gws {
		m, err := gw.conn.Recv()
		if err != nil {
			return err
		}
		if _, ok := m.(wire.Heartbeat); !ok {
			return fmt.Errorf("connection %d: %v before the heartbeat echo", gw.idx, m.Kind())
		}
	}
	return nil
}

// replay runs every tick of the trace in lockstep: tick t+1 starts only
// after every reply of tick t has been handled.
func (r *round) replay(res *roundResult) error {
	type job struct{ t, phase int }
	jobs := make(chan job)
	errs := make(chan error)
	go func() {
		for j := range jobs {
			errs <- r.runPhase(r.gws[1], j.t, j.phase)
		}
	}()
	defer close(jobs)
	phases := 1
	if r.prog.cl != nil {
		phases = 2
	}
	var wall0 time.Time
	var steal0, total0 uint64
	var cpu0 time.Duration
	var ms runtime.MemStats
	for t := 0; t < traceTicks; t++ {
		if t == warmupTicks {
			r.timed = true
			if r.rec != nil {
				runtime.ReadMemStats(&ms)
				res.timedAllocs = ms.Mallocs
			}
			cpu0, wall0 = cpuTime(), time.Now()
			steal0, total0 = hostStolen()
		}
		if err := r.prog.beginTick(t); err != nil {
			return fmt.Errorf("tick %d: %w", t, err)
		}
		for ph := 0; ph < phases; ph++ {
			jobs <- job{t, ph}
			err0 := r.runPhase(r.gws[0], t, ph)
			if err := errors.Join(err0, <-errs); err != nil {
				return fmt.Errorf("tick %d: %w", t, err)
			}
			if ph == 0 && phases == 2 {
				r.rehome()
			}
		}
		r.prog.endTick(t)
	}
	res.timedWall = time.Since(wall0)
	res.timedCPU = cpuTime() - cpu0
	res.stolen = stealSince(steal0, total0)
	if r.rec != nil {
		runtime.ReadMemStats(&ms)
		res.timedAllocs = ms.Mallocs - res.timedAllocs
	}
	return nil
}

// rehome moves the users redirected in phase 0 to the connection of
// their owning shard, where phase 1 resends their reports.
func (r *round) rehome() {
	for _, from := range r.gws {
		to := r.gws[1-from.idx]
		for _, rd := range from.out {
			to.in = append(to.in, rd)
			to.users = append(to.users, rd.user)
			for k, u := range from.users {
				if u == rd.user {
					from.users = append(from.users[:k], from.users[k+1:]...)
					break
				}
			}
		}
		from.out = from.out[:0]
	}
	for _, g := range r.gws {
		sort.Ints(g.users)
	}
}

func (r *round) runPhase(g *gateway, t, phase int) error {
	if phase == 1 {
		for _, rd := range g.in {
			if err := r.exchange(g, t, 1, rd.user, rd.upd, rd.firstLeg, false); err != nil {
				return err
			}
		}
		g.in = g.in[:0]
		return nil
	}
	if r.in.wl.batch {
		return r.tickBatch(g, t)
	}
	for _, i := range g.users {
		upd := r.clientTick(g, i, t)
		if upd == nil {
			continue
		}
		if err := r.exchange(g, t, 0, i, *upd, 0, r.prog.cl != nil); err != nil {
			return err
		}
	}
	return nil
}

func (r *round) clientTick(g *gateway, i, t int) *wire.PositionUpdate {
	if r.rec == nil {
		return r.clients[i].Tick(t, r.in.pos[t][i])
	}
	start := time.Now()
	upd := r.clients[i].Tick(t, r.in.pos[t][i])
	r.rec.addClientTick(g.idx, time.Since(start))
	return upd
}

// exchange sends one report frame and reads its full reply. A redirect
// queues the report for the owning shard's connection (allowed only on
// the first send); the resent report's RTT includes the first leg.
func (r *round) exchange(g *gateway, t, phase, i int, upd wire.PositionUpdate, firstLeg time.Duration, mayRedirect bool) error {
	start := time.Now()
	if err := g.conn.Send(upd); err != nil {
		return fmt.Errorf("user %d: send: %w", upd.User, err)
	}
	g.reportsSent++
	g.framesSent++
	var handle time.Duration
	for {
		m, err := g.conn.Recv()
		if err != nil {
			return fmt.Errorf("user %d seq %d: reply: %w", upd.User, upd.Seq, err)
		}
		g.framesRecv++
		if rd, ok := m.(wire.Redirect); ok {
			if !mayRedirect {
				return fmt.Errorf("user %d: redirected again to %s", upd.User, rd.Addr)
			}
			if rd.Addr != r.prog.addrs[1-g.idx] {
				return fmt.Errorf("user %d: redirect to unknown shard address %s", upd.User, rd.Addr)
			}
			g.redirects++
			g.out = append(g.out, redirected{user: i, upd: upd, firstLeg: time.Since(start)})
			if r.rec != nil {
				r.rec.addFrame(g, t, phase, upd, 1, 0, 0, true)
			}
			return nil
		}
		terminal, err := r.handle(g, t, i, upd.Seq, m, &handle)
		if err != nil {
			return err
		}
		if terminal {
			break
		}
	}
	rtt := time.Since(start) + firstLeg
	g.answered++
	if r.timed {
		g.timedAnswered++
		g.rtts = append(g.rtts, rtt.Nanoseconds())
	}
	if r.rec != nil {
		r.rec.addFrame(g, t, phase, upd, 1, rtt, handle, false)
	}
	return nil
}

// handle passes one reply message to user i's client and records the
// deliveries it carries. It reports whether m ends the reply to the
// report with sequence number seq.
func (r *round) handle(g *gateway, t, i int, seq uint32, m wire.Message, spent *time.Duration) (bool, error) {
	c := r.clients[i]
	fired, isFired := m.(wire.AlarmFired)
	before := len(c.Fired())
	start := time.Now()
	if err := c.Handle(t, m); err != nil {
		return false, err
	}
	if r.rec != nil {
		*spent += time.Since(start)
	}
	if isFired {
		u := uint64(i + 1)
		if r.prog.cl != nil {
			// The cluster may redeliver firings after a handoff; compare
			// what the client keeps after its own dedup.
			now := c.Fired()
			for _, ev := range now[before:] {
				g.deliveries = append(g.deliveries, event{u, ev, t})
			}
			g.refired += len(fired.Alarms) - (len(now) - before)
		} else {
			for _, ev := range fired.Alarms {
				g.deliveries = append(g.deliveries, event{u, ev, t})
			}
		}
		return false, nil
	}
	if got, ok := wire.SeqOf(m); !ok || got != seq {
		return false, fmt.Errorf("user %d: %v for seq %d, want seq %d", i+1, m.Kind(), got, seq)
	}
	return true, nil
}

// tickBatch sends the tick's reports of this connection's users as one
// UpdateBatch and hands each reply entry to its client.
func (r *round) tickBatch(g *gateway, t int) error {
	g.batch = g.batch[:0]
	for _, i := range g.users {
		if upd := r.clientTick(g, i, t); upd != nil {
			g.batch = append(g.batch, *upd)
		}
	}
	if len(g.batch) == 0 {
		return nil
	}
	start := time.Now()
	b := wire.UpdateBatch{Updates: g.batch}
	if err := g.conn.Send(b); err != nil {
		return fmt.Errorf("send batch: %w", err)
	}
	g.reportsSent += len(g.batch)
	g.framesSent++
	m, err := g.conn.Recv()
	if err != nil {
		return fmt.Errorf("batch reply: %w", err)
	}
	g.framesRecv++
	br, ok := m.(wire.BatchReply)
	if !ok {
		return fmt.Errorf("batch answered with %v", m.Kind())
	}
	if len(br.Entries) != len(g.batch) {
		return fmt.Errorf("batch of %d reports got %d reply entries", len(g.batch), len(br.Entries))
	}
	inner := 0
	var handle time.Duration
	for k, e := range br.Entries {
		upd := g.batch[k]
		if e.User != upd.User || len(e.Msgs) == 0 {
			return fmt.Errorf("batch entry %d: user %d with %d messages, want user %d", k, e.User, len(e.Msgs), upd.User)
		}
		for j, msg := range e.Msgs {
			inner += wire.EncodedSize(msg)
			terminal, err := r.handle(g, t, int(e.User)-1, upd.Seq, msg, &handle)
			if err != nil {
				return err
			}
			if terminal != (j == len(e.Msgs)-1) {
				return fmt.Errorf("user %d: reply entry not ended by its monitoring state", e.User)
			}
		}
	}
	rtt := time.Since(start)
	g.batchOverhead += int64(wire.EncodedSize(br) - inner)
	g.answered += len(g.batch)
	if r.timed {
		g.timedAnswered += len(g.batch)
		g.rtts = append(g.rtts, rtt.Nanoseconds())
	}
	if r.rec != nil {
		r.rec.addFrame(g, t, 0, wire.UpdateBatch{Updates: append([]wire.PositionUpdate(nil), g.batch...)}, len(g.batch), rtt, handle, false)
	}
	return nil
}

func addSnapshot(dst *metrics.Snapshot, s metrics.Snapshot) {
	dst.UplinkMessages += s.UplinkMessages
	dst.UplinkBytes += s.UplinkBytes
	dst.DownlinkMessages += s.DownlinkMessages
	dst.DownlinkBytes += s.DownlinkBytes
	dst.SafeRegionComputations += s.SafeRegionComputations
	dst.AlarmEvaluations += s.AlarmEvaluations
	dst.WALAppends += s.WALAppends
	dst.WALBytes += s.WALBytes
	dst.WALGroupCommits += s.WALGroupCommits
	dst.WALGroupRecords += s.WALGroupRecords
	dst.WALSyncNs += s.WALSyncNs
	dst.NodeAccesses += s.NodeAccesses
	dst.AlarmChecks += s.AlarmChecks
	dst.SRCandidates += s.SRCandidates
	dst.SRCorners += s.SRCorners
	dst.SRBitmapTests += s.SRBitmapTests
	dst.SRNodeAccesses += s.SRNodeAccesses
	dst.Costs = s.Costs
}

// dataDir returns a fresh directory for durable shards, inside the
// checkout's build directory (never tmpfs).
func dataDir(root string, round int) string {
	return filepath.Join(root, fmt.Sprintf("round-%d-%d", os.Getpid(), round))
}

func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(sorted[k])
}
