package main

import (
	"encoding/json"
	"errors"
	"os"
	"slices"
	"testing"
)

// feed returns a checker that saw the given (producer, seq) values.
func feed(key uint64, vals [][2]uint64) *pairChecker {
	c := &pairChecker{key: key}
	for _, v := range vals {
		c.see(encodePair(key, v[0], v[1]))
	}
	return c
}

func TestEncodePairRoundTripsInsideTheRawWordContract(t *testing.T) {
	for _, key := range []uint64{0, 1, pairsKeyMask, 0x2badbeef & pairsKeyMask} {
		for _, seq := range []uint64{0, 1, 12345, 1<<37 - 1} {
			for p := uint64(0); p < pairsGoroutines; p++ {
				v := encodePair(key, p, seq)
				if v == 0 || v&1 != 0 || v >= 1<<40 {
					t.Fatalf("encodePair(%#x, %d, %d) = %#x breaks the word contract", key, p, seq, v)
				}
				if gp, gs := decodePair(key, v); gp != p || gs != seq {
					t.Fatalf("decodePair(encodePair(%d, %d)) = (%d, %d)", p, seq, gp, gs)
				}
			}
		}
	}
}

func TestVerifyPairs(t *testing.T) {
	const key = 0x5eed
	cases := []struct {
		name    string
		a, b    [][2]uint64
		wantBad bool
	}{
		{"split between consumers", [][2]uint64{{0, 0}, {1, 0}, {0, 2}}, [][2]uint64{{0, 1}, {1, 1}, {1, 2}}, false},
		{"reordered for one consumer", [][2]uint64{{0, 1}, {0, 0}, {1, 0}}, [][2]uint64{{0, 2}, {1, 1}, {1, 2}}, true},
		{"dequeued twice", [][2]uint64{{0, 0}, {0, 1}, {1, 0}}, [][2]uint64{{0, 1}, {1, 1}, {1, 2}, {0, 2}}, true},
		{"lost", [][2]uint64{{0, 0}, {1, 0}}, [][2]uint64{{0, 1}, {1, 1}, {1, 2}}, true},
		{"duplicate hides a loss", [][2]uint64{{0, 0}, {0, 1}, {1, 0}}, [][2]uint64{{0, 1}, {1, 1}, {1, 2}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := verifyPairs([]*pairChecker{feed(key, tc.a), feed(key, tc.b)}, []uint64{3, 3})
			var ce *checkError
			if got := errors.As(err, &ce); got != tc.wantBad {
				t.Fatalf("verifyPairs = %v, want a check failure: %v", err, tc.wantBad)
			}
		})
	}
}

func TestJobsRunCheck(t *testing.T) {
	ok := func() *jobsRun {
		return &jobsRun{
			accepted: []string{"a", "", "c"},
			acks:     []uint8{1, 0, 1},
			ackedID:  []string{"a", "", "c"},
		}
	}
	if err := ok().check(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	breaks := map[string]func(r *jobsRun){
		"acked twice":        func(r *jobsRun) { r.acks[0] = 2 },
		"never acked":        func(r *jobsRun) { r.acks[2] = 0 },
		"acked, not pushed":  func(r *jobsRun) { r.acks[1] = 1 },
		"acked as other job": func(r *jobsRun) { r.ackedID[2] = "a" },
		"409 on ack":         func(r *jobsRun) { r.conflicts = 1 },
	}
	for name, brk := range breaks {
		r := ok()
		brk(r)
		var ce *checkError
		if err := r.check(); !errors.As(err, &ce) {
			t.Errorf("%s: check = %v, want a check failure", name, err)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0.5: 3, 0.9: 5, 0.2: 1, 0.99: 5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		slices.Sort(out)
		return out
	}
	sorted := func(xs []string) []string {
		xs = slices.Clone(xs)
		slices.Sort(xs)
		return xs
	}
	var ws []string
	for w := range workloads {
		ws = append(ws, w)
	}
	if got, want := names(spec.Workloads), sorted(ws); !slices.Equal(got, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program runs %v", got, want)
	}
	if got, want := names(spec.EndToEnd), sorted(endToEnd); !slices.Equal(got, want) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the program reports %v", got, want)
	}
	if got, want := names(spec.PerLayer), sorted(perLayer); !slices.Equal(got, want) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the program reports %v", got, want)
	}
}
