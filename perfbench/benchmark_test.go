package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json lists the workloads and metrics this program prints; the
// two must not drift apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, here %q", i, b.Workloads[i], w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.name, len(w.why))
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %v, here %v", c.kind, i, c.json[i], d)
			}
		}
	}
}
