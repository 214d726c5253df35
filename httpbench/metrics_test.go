package main

import (
	"bytes"
	"os"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the workload and metric tables the benchmark reports
// (regenerate it with httpbench -spec).
func TestBenchmarkJSONMatches(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from httpbench -spec:\n%s", want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.99, 3.97}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}

func TestCoveredUnion(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 15}, {20, 30}, {-5, 2}}
	if got := covered(ivs, 0, 25); got != 20 {
		t.Fatalf("covered = %d, want 20 (0–15 and 20–25)", got)
	}
}
