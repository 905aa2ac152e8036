package main

import "testing"

func checkKinds(id uint64) oKind {
	if id >= 100 {
		return kComposite
	}
	return kOneShot
}

func checkFixture() []event {
	return []event{
		{1, packEvent(1, trFired, 0), 10},
		{2, packEvent(1, trFired, 0), 12},
		{2, packEvent(2, trEnter, 1), 20},
		{3, packEvent(100, trSeverity, 1200), 30},
	}
}

func TestCheckAcceptsExactDeliveries(t *testing.T) {
	exp := checkFixture()
	v := checkDeliveries(exp, exp, checkKinds)
	if !v.ok() || v.attempted != 3 || v.failed != 0 || v.compositeExpected != 1 || v.compositeMissed != 0 {
		t.Fatalf("verdict %+v", v)
	}
}

func TestCheckFailsDroppedEvent(t *testing.T) {
	exp := checkFixture()
	v := checkDeliveries(exp, append([]event(nil), exp[1:]...), checkKinds)
	if v.ok() || v.failed != 1 {
		t.Fatalf("dropped event: verdict %+v", v)
	}
}

func TestCheckFailsEventMovedByATick(t *testing.T) {
	exp := checkFixture()
	got := append([]event(nil), exp...)
	got[2].tick++
	if v := checkDeliveries(exp, got, checkKinds); v.ok() || v.failed != 1 {
		t.Fatalf("moved event: verdict %+v", v)
	}
}

func TestCheckFailsUnexpectedUserAlarm(t *testing.T) {
	exp := checkFixture()
	got := append(append([]event(nil), exp...), event{4, packEvent(1, trFired, 0), 10})
	if v := checkDeliveries(exp, got, checkKinds); v.ok() {
		t.Fatalf("unexpected one-shot: verdict %+v", v)
	}
	got = append(append([]event(nil), exp...), event{4, packEvent(100, trSeverity, 1200), 30})
	if v := checkDeliveries(exp, got, checkKinds); v.ok() {
		t.Fatalf("unexpected composite: verdict %+v", v)
	}
}

func TestCheckFailsDuplicate(t *testing.T) {
	exp := checkFixture()
	got := append(append([]event(nil), exp...), exp[0])
	if v := checkDeliveries(exp, got, checkKinds); v.ok() {
		t.Fatalf("duplicate: verdict %+v", v)
	}
}

// The known composite fault: a lost or late composite firing is tallied,
// not failed, while an early one still fails the run.
func TestCheckTalliesCompositeMiss(t *testing.T) {
	exp := checkFixture()
	v := checkDeliveries(exp, exp[:3], checkKinds)
	if !v.ok() || v.compositeMissed != 1 || v.failed != 0 {
		t.Fatalf("lost composite: verdict %+v", v)
	}
	late := append([]event(nil), exp...)
	late[3] = event{3, packEvent(100, trSeverity, 1600), 34}
	if v := checkDeliveries(exp, late, checkKinds); !v.ok() || v.compositeMissed != 1 {
		t.Fatalf("late composite: verdict %+v", v)
	}
	early := append([]event(nil), exp...)
	early[3].tick--
	if v := checkDeliveries(exp, early, checkKinds); v.ok() {
		t.Fatalf("early composite: verdict %+v", v)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}
