package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) (method "exclusive") does.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// countMetrics must be identical across runs of one seed.
var countMetrics = []string{"uplink_msgs_per_user_hour", "downlink_bytes_per_user_hour", "client_energy_mwh_per_user_hour"}

// steady runs every workload k times with seeds 1..k (each in its own
// process), prints the median and quartiles of every end-to-end metric,
// then repeats seed 1 once more and checks that its count-derived metrics
// and failed share came out identical.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	k := fs.Int("k", 10, "runs per workload")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	fs.Parse(args)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bad := false
	for _, wl := range workloads {
		run := func(seed int64) (*result, error) {
			cmd := exec.Command(self, "--workload", wl.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(*seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			for _, l := range lines[:len(lines)-1] {
				fmt.Println(l)
			}
			return lastJSON(out)
		}
		values := map[string][]float64{}
		units := map[string]string{}
		var first *result
		for i := 0; i < *k; i++ {
			r, err := run(int64(i + 1))
			if err != nil {
				return err
			}
			if i == 0 {
				first = r
			}
			if !r.Correct {
				bad = true
			}
			fmt.Printf("%s seed %d: correct=%v attempted=%d failed=%d\n", wl.name, i+1, r.Correct, r.Attempted, r.Failed)
			for name, m := range r.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		again, err := run(1)
		if err != nil {
			return err
		}
		for _, name := range countMetrics {
			if again.Metrics[name] != first.Metrics[name] {
				bad = true
				fmt.Printf("%s: %s differs between two runs of seed 1: %v vs %v\n", wl.name, name, first.Metrics[name].Value, again.Metrics[name].Value)
			}
		}
		if first.Failed*again.Attempted != again.Failed*first.Attempted {
			bad = true
			fmt.Printf("%s: failed share differs between two runs of seed 1\n", wl.name)
		}
		var keys []string
		for name := range values {
			keys = append(keys, name)
		}
		sort.Strings(keys)
		fmt.Printf("%-34s %14s %14s %14s %8s\n", wl.name, "q1", "median", "q3", "spread")
		for _, name := range keys {
			q1, q2, q3 := quartiles(values[name])
			fmt.Printf("  %-32s %14.4f %14.4f %14.4f %7.2f%%  %s\n", name, q1, q2, q3, 100*ratio(q3-q1, q2), units[name])
			fmt.Printf("  %-32s %v\n", "", values[name])
		}
	}
	if bad {
		return fmt.Errorf("some runs were incorrect or not repeatable")
	}
	return nil
}
