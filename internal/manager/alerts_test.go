package manager

import (
	"syscall"
	"testing"

	"cad/internal/alert"
	"cad/internal/faultfs"
)

// collectEvents drains everything currently buffered on sub.
func collectEvents(sub *alert.Subscription) []alert.Event {
	var out []alert.Event
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				return out
			}
			out = append(out, ev)
		default:
			return out
		}
	}
}

func newTestBus(t *testing.T) *alert.Bus {
	t.Helper()
	b, err := alert.NewBus(alert.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// TestAlertLifecycleEvents drives a stream through a fault window and
// checks the emitted transitions: one anomaly_opened, anomaly_updated plus
// a raw alarm for every further abnormal round, one anomaly_closed carrying
// the assembled span — all under one AnomalyID.
func TestAlertLifecycleEvents(t *testing.T) {
	bus := newTestBus(t)
	sub := bus.Subscribe("a", 4096)
	defer sub.Close()
	m := New(Options{Alerts: bus})
	if _, err := m.Create("a", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, m, "a", makeCols(5, 400)) // fault in ticks [200, 300)

	events := collectEvents(sub)
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	var opened, updated, closed, alarms int
	var closedEv alert.Event
	for i, ev := range events {
		if ev.Stream != "a" || ev.Time.IsZero() {
			t.Fatalf("event %d malformed: %+v", i, ev)
		}
		switch ev.Type {
		case alert.TypeAnomalyOpened:
			opened++
			if updated > 0 && opened == 1 {
				t.Fatal("anomaly_updated before anomaly_opened")
			}
		case alert.TypeAnomalyUpdated:
			updated++
		case alert.TypeAnomalyClosed:
			closed++
			closedEv = ev
		case alert.TypeAlarm:
			alarms++
		default:
			t.Fatalf("unexpected event type %q", ev.Type)
		}
	}
	if opened == 0 || closed == 0 {
		t.Fatalf("transitions: %d opened, %d updated, %d closed", opened, updated, closed)
	}
	// Every abnormal round raises one lifecycle transition and one alarm.
	if alarms != opened+updated {
		t.Fatalf("%d alarms for %d abnormal rounds", alarms, opened+updated)
	}
	if closedEv.AnomalyID == 0 || len(closedEv.Sensors) == 0 || closedEv.End <= closedEv.Start {
		t.Fatalf("closed event incomplete: %+v", closedEv)
	}
	// The fault decouples sensors 0 and 1; the closed event's root-cause
	// list should start there.
	if s := closedEv.Sensors[0]; s != 0 && s != 1 {
		t.Errorf("top root cause = sensor %d, want 0 or 1", s)
	}
	// The API's view agrees with the events.
	anomalies, _, err := m.Anomalies("a", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(anomalies) != closed {
		t.Errorf("%d anomalies via API, %d closed events", len(anomalies), closed)
	}
}

// TestAlertDegradedTransition checks the manager announces losing
// durability exactly once.
func TestAlertDegradedTransition(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.New(faultfs.OS())
	bus := newTestBus(t)
	sub := bus.Subscribe("", 64)
	o := durableOptions(dir)
	o.FS = fault
	o.Alerts = bus
	m := New(o)
	if _, err := m.Create("plant", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	cols := makeCols(3, 80)
	ingestAll(t, m, "plant", cols[:40])
	if evs := collectEvents(sub); len(evs) != 0 {
		t.Fatalf("events before any fault: %+v", evs)
	}

	fault.FailWrites(syscall.ENOSPC)
	ingestAll(t, m, "plant", cols[40:])
	var degraded []alert.Event
	for _, ev := range collectEvents(sub) {
		if ev.Type == alert.TypeDurabilityDegraded {
			degraded = append(degraded, ev)
		}
	}
	if len(degraded) != 1 {
		t.Fatalf("%d durability_degraded events, want exactly 1", len(degraded))
	}
	if degraded[0].Stream != "plant" || degraded[0].Reason == "" {
		t.Fatalf("degraded event incomplete: %+v", degraded[0])
	}
}

// TestAnomaliesPaging mirrors the Alarms paging semantics on the anomaly
// ring.
func TestAnomaliesPaging(t *testing.T) {
	m := New(Options{})
	if _, err := m.Create("a", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, m, "a", makeCols(5, 400))
	all, _, err := m.Anomalies("a", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no anomalies to page")
	}
	if one, _, _ := m.Anomalies("a", 1, 0); len(one) != 1 || one[0].LastRound != all[len(all)-1].LastRound {
		t.Fatalf("limit=1 returned %+v, want the newest anomaly", one)
	}
	if off, _, _ := m.Anomalies("a", 0, 1); len(off) != len(all)-1 {
		t.Fatalf("offset=1 returned %d anomalies, want %d", len(off), len(all)-1)
	}
	if none, _, _ := m.Anomalies("a", 10, len(all)+5); len(none) != 0 {
		t.Fatalf("offset past the ring returned %d anomalies", len(none))
	}
}
