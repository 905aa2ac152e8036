// Command perfbench is SABRE's fleet-over-TCP benchmark. It replays
// generated mobility traces from one process through the real TCP front
// ends (server.TCPServer, or cluster.TCPCluster over durable, replicated
// shards), checks every alarm delivery against an independent oracle,
// and prints the end-to-end metrics of the chosen workload as the last
// line of standard output; --trace 1 prints the per-layer metrics
// instead. See README.md.
//
//	bash perfbench/run.sh --workload mwpsr-single --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: mwpsr-single, bitmap-lifecycle-batch or cluster-durable")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds (whole rounds)")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	fs.Parse(os.Args[1:])
	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := measure(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// env is what each run records about where it ran.
func env(data string) string {
	fsType := "unknown"
	if b, err := os.ReadFile("/proc/mounts"); err == nil {
		best := -1
		abs := data
		for _, line := range strings.Split(string(b), "\n") {
			f := strings.Fields(line)
			if len(f) >= 3 && strings.HasPrefix(abs, f[1]) && len(f[1]) > best {
				best, fsType = len(f[1]), f[2]
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s data-dir-fs=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType)
}

func dataRoot() (string, error) {
	root := os.Getenv("PERFBENCH_DATA")
	if root == "" {
		root = ".bench_build/data"
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(root, "/") {
		root = wd + "/" + root
	}
	return root, nil
}

// measure runs whole rounds of the workload for at least d and checks
// every round's deliveries against the oracle.
func measure(wl workload, seed int64, d time.Duration, traced bool) (*result, error) {
	root, err := dataRoot()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	fmt.Printf("perfbench %s seed %d: %s\n", wl.name, seed, env(root))
	in, err := buildInputs(wl, seed)
	if err != nil {
		return nil, err
	}
	gws := newGateways()
	budget := d
	if traced {
		budget = d / 2
	}
	var rounds []*roundResult
	start := time.Now()
	for k := 0; ; k++ {
		r, err := runRound(in, gws, dataDir(root, k), nil)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", k, err)
		}
		rounds = append(rounds, r)
		r.print(k)
		if frames := totalFrames(rounds); time.Since(start) >= budget && frames >= 1000 {
			break
		}
	}
	var tracedRounds []*roundResult
	var rec *recorder
	if traced {
		start = time.Now()
		for k := len(rounds); ; k++ {
			rk := &recorder{}
			r, err := runRound(in, gws, dataDir(root, k), rk)
			if err != nil {
				return nil, fmt.Errorf("traced round %d: %w", k, err)
			}
			if rec == nil {
				rec = rk
			}
			tracedRounds = append(tracedRounds, r)
			r.print(k)
			if time.Since(start) >= budget {
				break
			}
		}
	}

	// The oracle runs after the timed phase.
	alarms := oracleAlarms(in.alarms, rounds[0].ids)
	kinds := map[uint64]oKind{}
	for _, a := range alarms {
		kinds[a.id] = a.kind
	}
	kindOf := func(id uint64) oKind { return kinds[id] }
	expected := expectedDeliveries(alarms, in.pos)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	missed := 0
	all := append(append([]*roundResult(nil), rounds...), tracedRounds...)
	for k, r := range all {
		v := checkDeliveries(expected, r.deliveries, kindOf)
		res.Attempted += v.attempted
		res.Failed += v.failed
		missed += v.compositeMissed
		for _, e := range v.errs {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "round %d: %s\n", k, e)
		}
		if k == 0 {
			fmt.Printf("oracle: %d one-shot/continuous deliveries per round, %d composite (%d lost or late)\n",
				v.attempted, v.compositeExpected, v.compositeMissed)
			for _, m := range v.misses {
				fmt.Println("composite miss:", m)
			}
		}
		if !sameIDs(r.ids, rounds[0].ids) {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "round %d: alarm IDs differ from round 0\n", k)
		}
		f, f0 := r, rounds[0]
		if f.reportsSent != f0.reportsSent || f.downBytes != f0.downBytes || f.energy != f0.energy {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "round %d: counts (reports %d, downlink %d B, energy %v) differ from round 0 (%d, %d, %v)\n",
				k, f.reportsSent, f.downBytes, f.energy, f0.reportsSent, f0.downBytes, f0.energy)
		}
	}
	if traced {
		rs, err := replayInProcess(in, rec.ordered(), dataDir(root, len(all)))
		if err != nil {
			return nil, fmt.Errorf("in-process replay: %w", err)
		}
		res.Metrics = layerMetrics(rounds, tracedRounds, rec, rs, float64(missed)/float64(len(all)))
	} else {
		res.Metrics = endToEnd(rounds)
	}
	fmt.Printf("%d rounds; attempted %d, failed %d\n", len(all), res.Attempted, res.Failed)
	return res, nil
}

func (r *roundResult) print(k int) {
	one := []*roundResult{r}
	rps, cpu, _ := throughput(one)
	rtts := sortedRTTs(one)
	fmt.Printf("round %d: setup %.4fs, %.0f reports/s, %.2f us CPU/report, RTT p50 %.1f us p99 %.1f us (%d frames), stolen %.3f (%.3f with set-up)\n",
		k, r.setup.Seconds(), rps, cpu, percentile(rtts, 0.5)/1e3, percentile(rtts, 0.99)/1e3, len(rtts), r.stolen, r.roundStolen)
}

func totalFrames(rounds []*roundResult) int {
	n := 0
	for _, r := range rounds {
		n += r.timedFrames
	}
	return n
}

func sameIDs(a, b []alarm.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedRTTs(rounds []*roundResult) []int64 {
	var all []int64
	for _, r := range rounds {
		all = append(all, r.rtts...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

func throughput(rounds []*roundResult) (reportsPerS, cpuPerReport float64, answered int) {
	var wall, cpu time.Duration
	for _, r := range rounds {
		wall += r.timedWall
		cpu += r.timedCPU
		answered += r.timedAnswered
	}
	if answered == 0 || wall <= 0 {
		return 0, 0, 0
	}
	return float64(answered) / wall.Seconds(), float64(cpu.Nanoseconds()) / 1e3 / float64(answered), answered
}

// The benchmark host is a virtual machine whose vCPUs share physical
// cores with other tenants: /proc/stat shows the hypervisor stealing up
// to two fifths of the CPU time during a round, and a round that loses
// CPU is slower in every wall-clock timing whatever the program does.
// Each round therefore records the host's steal share s, and its wall
// times are scaled to the share the hypervisor left the host. A report
// frame's round trip runs on one vCPU at a time, so its time is scaled
// by (1-s). Ticks advance in lockstep with both connections, and so both
// vCPUs, busy: a tick proceeds only while neither vCPU is stolen, so
// throughput is divided by (1-s)². CPU time needs no scaling, since the
// kernel leaves stolen time out of it.

// adjustedRPS is a round's reports per second in its timed ticks,
// divided by (1-s)².
func (r *roundResult) adjustedRPS() float64 {
	rps, _, _ := throughput([]*roundResult{r})
	free := 1 - r.stolen
	return rps / (free * free)
}

// medianOf returns the median over rounds of f.
func medianOf(rounds []*roundResult, f func(r *roundResult) float64) float64 {
	var xs []float64
	for _, r := range rounds {
		xs = append(xs, f(r))
	}
	return median(xs)
}

// setupS is the median over every set-up of the rounds, each times
// (1-s) for its round's steal share from the first set-up on.
func setupS(rounds []*roundResult) float64 {
	var xs []float64
	for _, r := range rounds {
		for _, d := range r.setups {
			xs = append(xs, d.Seconds()*(1-r.roundStolen))
		}
	}
	return median(xs)
}

// endToEnd computes the eight end-to-end metrics from untraced rounds:
// each timing is the median over rounds of the round's figure, wall
// times scaled by the host's steal share as above. The RTT's 99th
// percentile is a per-layer metric of the traced run: the frames a steal
// pause hits make the tail, which no scaling corrects, and on the
// reference host it moved by more than a quarter between runs.
func endToEnd(rounds []*roundResult) map[string]metric {
	uh := userHours()
	r0 := rounds[0]
	return map[string]metric{
		"reports_per_s": {medianOf(rounds, (*roundResult).adjustedRPS), "1/s"},
		"report_rtt_p50_us": {medianOf(rounds, func(r *roundResult) float64 {
			return percentile(sortedRTTs([]*roundResult{r}), 0.50) / 1e3 * (1 - r.stolen)
		}), "us"},
		"cpu_us_per_report": {medianOf(rounds, func(r *roundResult) float64 {
			_, cpu, _ := throughput([]*roundResult{r})
			return cpu
		}), "us"},
		"uplink_msgs_per_user_hour":       {float64(r0.reportsSent) / uh, "1/h"},
		"downlink_bytes_per_user_hour":    {float64(r0.downBytes) / uh, "B/h"},
		"client_energy_mwh_per_user_hour": {r0.energy / uh, "mWh/h"},
		"heap_bytes_per_user":             {medianOf(rounds, func(r *roundResult) float64 { return r.heapPerUser }), "B"},
		"setup_s":                         {setupS(rounds), "s"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func p50us(ns []int64) float64 { return pct(ns, 0.50) / 1e3 }

func pct(ns []int64, q float64) float64 {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentile(s, q)
}

func meanNs(ns []int64) float64 {
	var sum int64
	for _, v := range ns {
		sum += v
	}
	return ratio(float64(sum), float64(len(ns)))
}

// layerMetrics computes the per-layer metrics of a traced run.
func layerMetrics(untraced, traced []*roundResult, rec *recorder, rs *replayStats, compositeMissed float64) map[string]metric {
	plainRPS := medianOf(untraced, (*roundResult).adjustedRPS)
	tracedRPS := medianOf(traced, (*roundResult).adjustedRPS)
	wallRPS, _, _ := throughput(untraced)
	_, _, answered := throughput(traced)
	var clientTickNs, clientTicks, handleNs int64
	for _, g := range rec.gw {
		clientTickNs += g.clientTickNs
		clientTicks += g.clientTicks
		handleNs += g.handleNs
	}
	t0 := traced[0]
	reports := float64(t0.answered)
	upBytes := float64(t0.engines.UplinkBytes)
	var allocs uint64
	for _, r := range traced {
		allocs += r.timedAllocs
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e := t0.engines
	re := rs.engines // the replay's stores sync every commit
	iso := rs.isolated
	n := float64(iso.n)
	userTicks := float64(fleetUsers * traceTicks)
	tail := sortedRTTs(untraced)
	m := map[string]metric{
		"report_rtt_p99_us":                 {percentile(tail, 0.99) / 1e3, "us"},
		"client.tick_ns_per_user_tick":      {ratio(float64(clientTickNs), float64(clientTicks)), "ns"},
		"client.handle_us_per_reply":        {ratio(float64(handleNs)/1e3, reports), "us"},
		"client.probes_per_user_tick":       {ratio(float64(t0.probes), userTicks), "count"},
		"wire.up_bytes_per_report":          {ratio(upBytes, float64(e.UplinkMessages)), "B"},
		"wire.down_bytes_per_reply":         {ratio(float64(t0.downBytes), reports), "B"},
		"wire.encode_ns_per_frame":          {ratio(float64(iso.wireEncNs), float64(iso.wireFrames)), "ns"},
		"wire.decode_ns_per_frame":          {ratio(float64(iso.wireDecNs), float64(iso.wireFrames)), "ns"},
		"transport.frames_per_report":       {ratio(float64(t0.frames), reports), "count"},
		"server.update_us_p50":              {p50us(rs.updateNs), "us"},
		"server.update_us_p99":              {pct(rs.updateNs, 0.99) / 1e3, "us"},
		"server.frontend_us_p50":            {p50us(rs.frontendNs), "us"},
		"server.sr_computations_per_report": {ratio(float64(e.SafeRegionComputations), reports), "count"},
		"server.allocs_per_report":          {rs.allocReport, "count"},
		"server.settick_us_per_tick":        {meanNs(rs.setTickNs) / 1e3, "us"},
		"server.model_us_per_report":        {ratio(e.TotalSeconds()*1e6, reports), "us"},
		"alarm.evaluate_ns":                 {ratio(float64(iso.evalNs), n), "ns"},
		"alarm.candidates_per_eval":         {ratio(float64(iso.candidates), n), "count"},
		"rstar.node_accesses_per_eval":      {ratio(float64(iso.accesses), n), "count"},
		"alarm.relevant_in_cell_ns":         {ratio(float64(iso.relNs), n), "ns"},
		"alarm.relevant_per_cell":           {ratio(float64(iso.rel), n), "count"},
		"saferegion.rect_us_p50":            {p50us(iso.rectNs), "us"},
		"saferegion.rect_area_km2_avg":      {ratio(iso.rectArea, n), "km2"},
		"saferegion.bitmap_us_p50":          {p50us(iso.bitmapNs), "us"},
		"pyramid.encode_us_p50":             {p50us(iso.encodeNs), "us"},
		"pyramid.decode_us_p50":             {p50us(iso.decodeNs), "us"},
		"pyramid.bits_per_bitmap":           {ratio(float64(iso.bits), float64(len(iso.decodeNs))), "bit"},
		"pyramid.coverage_avg":              {ratio(iso.coverage, float64(len(iso.decodeNs))), "ratio"},
		"store.records_per_report":          {ratio(float64(e.WALAppends), reports), "count"},
		"store.group_size_avg":              {ratio(float64(re.WALGroupRecords), float64(re.WALGroupCommits)), "count"},
		"store.sync_us_per_commit":          {ratio(float64(re.WALSyncNs)/1e3, float64(re.WALGroupCommits)), "us"},
		"store.bytes_per_report":            {ratio(float64(e.WALBytes), reports), "B"},
		"cluster.redirects_per_1k_reports":  {ratio(float64(t0.redirects)*1000, reports), "count"},
		"cluster.handoff_us_p50":            {p50us(rs.handoffNs), "us"},
		"cluster.refired_per_1k_reports":    {ratio(float64(t0.refired)*1000, reports), "count"},
		"cluster.tick_replication_us":       {meanNs(rs.tickReplNs) / 1e3, "us"},
		"go.allocs_per_report":              {ratio(float64(allocs), float64(answered)), "count"},
		"go.gc_cpu_fraction":                {ms.GCCPUFraction, "ratio"},
		"trace.overhead_pct":                {100 * (1 - ratio(tracedRPS, plainRPS)), "%"},
		"host.steal_share":                  {medianOf(untraced, func(r *roundResult) float64 { return r.stolen }), "ratio"},
		"host.wall_reports_per_s":           {wallRPS, "1/s"},
		"check.composite_missed_per_round":  {compositeMissed, "count"},
	}
	fmt.Printf("tracing overhead: %.1f%% (reports/s untraced %.0f, traced %.0f)\n", m["trace.overhead_pct"].Value, plainRPS, tracedRPS)
	return m
}

var errNoResult = errors.New("no result line")

// lastJSON parses the last line of a run's standard output.
func lastJSON(out []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) == 0 {
		return nil, errNoResult
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("%w: %v", errNoResult, err)
	}
	return &r, nil
}
