package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// The metric lists the code checks every run against must be the ones
// BENCHMARK.json declares, in the same order.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
		Workload []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEndNames) {
		t.Errorf("BENCHMARK.json end_to_end = %v, code reports %v", got, endToEndNames)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayerNames) {
		t.Errorf("BENCHMARK.json per_layer = %v, code reports %v", got, perLayerNames)
	}
	for _, w := range names(spec.Workload) {
		if _, ok := workloads[w]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w)
		}
	}
}

func TestCheckNames(t *testing.T) {
	want := []string{"a", "b"}
	if err := checkNames([]metric{{"a", 1, "ms"}, {"b", 2, "ms"}}, want); err != nil {
		t.Errorf("exact set rejected: %v", err)
	}
	for _, ms := range [][]metric{
		{{"a", 1, "ms"}},
		{{"a", 1, "ms"}, {"b", 2, "ms"}, {"c", 3, "ms"}},
		{{"a", 1, "ms"}, {"a", 1, "ms"}, {"b", 2, "ms"}},
	} {
		if checkNames(ms, want) == nil {
			t.Errorf("%v accepted", ms)
		}
	}
}
