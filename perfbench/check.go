package main

import (
	"fmt"
	"sort"
)

// verdict is the outcome of comparing one round's deliveries with the
// oracle.
type verdict struct {
	// attempted counts the one-shot and continuous deliveries the oracle
	// expects; failed those not delivered at their tick.
	attempted, failed int
	// compositeExpected counts expected composite firings and
	// compositeMissed those lost or late: the known composite fault
	// (README "Known faults") makes them miss on some seeds only, so they
	// are tallied apart instead of counted as operations.
	compositeExpected, compositeMissed int
	// errs lists every difference that makes the run incorrect; misses
	// describes the composite firings lost or late.
	errs, misses []string
}

func (v verdict) ok() bool { return len(v.errs) == 0 }

func (v *verdict) errorf(format string, args ...any) {
	const keep = 20
	if len(v.errs) < keep {
		v.errs = append(v.errs, fmt.Sprintf(format, args...))
	} else if len(v.errs) == keep {
		v.errs = append(v.errs, "...")
	}
}

// checkDeliveries compares delivered events with the expected ones.
// kindOf maps an alarm ID to its kind. One-shot and continuous events must
// match the expected (user, event, tick) set exactly. A composite firing
// may be missing or late, but one that is early, duplicated, carries a
// different event at its expected tick, or goes to a (user, alarm) the
// oracle never expects makes the run incorrect.
func checkDeliveries(expected, delivered []event, kindOf func(id uint64) oKind) verdict {
	var v verdict
	type ua struct{ user, alarm uint64 }
	want := map[event]bool{}
	wantComposite := map[ua]event{}
	for _, e := range expected {
		if kindOf(eventAlarm(e.ev)) == kComposite {
			v.compositeExpected++
			wantComposite[ua{e.user, eventAlarm(e.ev)}] = e
			continue
		}
		v.attempted++
		want[e] = true
	}
	got := map[event]bool{}
	gotComposite := map[ua]bool{}
	for _, d := range delivered {
		if kindOf(eventAlarm(d.ev)) == kComposite {
			key := ua{d.user, eventAlarm(d.ev)}
			e, ok := wantComposite[key]
			switch {
			case !ok:
				v.errorf("composite alarm %d fired for user %d at tick %d, never expected", key.alarm, d.user, d.tick)
			case gotComposite[key]:
				v.errorf("composite alarm %d fired twice for user %d", key.alarm, d.user)
			case d.tick < e.tick:
				v.errorf("composite alarm %d fired for user %d at tick %d, before expected tick %d", key.alarm, d.user, d.tick, e.tick)
			case d.tick == e.tick && d.ev != e.ev:
				v.errorf("composite alarm %d for user %d at tick %d: event %#x, want %#x", key.alarm, d.user, d.tick, d.ev, e.ev)
			}
			gotComposite[key] = true
			if ok && d.tick > e.tick {
				v.compositeMissed++
				v.misses = append(v.misses, fmt.Sprintf("%s arrived at tick %d", describe(e), d.tick))
			}
			continue
		}
		if got[d] {
			v.errorf("duplicate delivery %s", describe(d))
			continue
		}
		got[d] = true
		if !want[d] {
			v.errorf("unexpected delivery %s", describe(d))
		}
	}
	for key, e := range wantComposite {
		if !gotComposite[key] {
			v.compositeMissed++
			v.misses = append(v.misses, describe(e)+" never arrived")
		}
	}
	sort.Strings(v.misses)
	var missing []event
	for e := range want {
		if !got[e] {
			missing = append(missing, e)
		}
	}
	sort.Slice(missing, func(i, j int) bool {
		if missing[i].tick != missing[j].tick {
			return missing[i].tick < missing[j].tick
		}
		return missing[i].user < missing[j].user
	})
	for _, e := range missing {
		v.failed++
		v.errorf("missing delivery %s", describe(e))
	}
	return v
}

func describe(e event) string {
	return fmt.Sprintf("user %d alarm %d transition %d payload %d at tick %d",
		e.user, eventAlarm(e.ev), e.ev>>40&7, e.ev>>43, e.tick)
}
