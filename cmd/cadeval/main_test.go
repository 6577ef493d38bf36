package main

import (
	"strings"
	"testing"
)

func TestPickScenarios(t *testing.T) {
	all, err := pickScenarios("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 10 {
		t.Fatalf("full corpus has %d scenarios, want ≥ 10", len(all))
	}
	two, err := pickScenarios("crash-loop, oom-kill")
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 || two[0].Name != "crash-loop" || two[1].Name != "oom-kill" {
		t.Fatalf("filtered = %v", two)
	}
	if _, err := pickScenarios("nope"); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("unknown scenario error = %v", err)
	}
}

func TestPickVariants(t *testing.T) {
	all, err := pickVariants("", "incremental")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 4 {
		t.Fatalf("full grid has %d variants, want ≥ 4", len(all))
	}
	// Filters keep grid order regardless of the filter's order, so the
	// first kept variant stays the Ahead/Miss reference.
	picked, err := pickVariants("fixed-xi,incremental", "incremental")
	if err != nil {
		t.Fatal(err)
	}
	if len(picked) != 2 || picked[0].Name != "incremental" || picked[1].Name != "fixed-xi" {
		t.Fatalf("picked = %v", picked)
	}
	if _, err := pickVariants("incremental,bogus", "incremental"); err == nil || !strings.Contains(err.Error(), "unknown config") {
		t.Fatalf("unknown config error = %v", err)
	}
	if _, err := pickVariants("fixed-xi", "incremental"); err == nil || !strings.Contains(err.Error(), "gate") {
		t.Fatalf("dropped-gate error = %v", err)
	}
}
