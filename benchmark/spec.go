package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec mirrors BENCHMARK.json, the contract the driver reads. The program
// reads it too: which metrics a run must emit, and the bounds -compare
// applies, come from the file and nowhere else.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// value is one measured metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the driver's contract.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// metrics accumulates name → value while a run measures. Units are filled
// in from the spec when the result is built, so a name the spec does not
// declare, or one it declares and the run did not produce, is an error
// there and not a silent zero.
type metrics map[string]float64

// build checks m against the metrics the spec declares for this kind of
// run and attaches their units.
func (m metrics) build(defs []metricDef) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics named in BENCHMARK.json but not measured: %v", missing)
	}
	var extra []string
	for name := range m {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not named in BENCHMARK.json: %v", extra)
	}
	return out, nil
}

// zeroOutside gives the value 0 to every per-layer metric of a layer the
// workload does not exercise (the layer is the name's prefix up to the
// dot): a run reports all metrics, and a layer the workload never touches
// costs it nothing. Metrics of exercised layers are left alone, so one the
// run forgot to measure is still reported as missing.
func (m metrics) zeroOutside(defs []metricDef, exercised ...string) {
	in := map[string]bool{}
	for _, l := range exercised {
		in[l] = true
	}
	for _, d := range defs {
		layer, _, _ := strings.Cut(d.Name, ".")
		if _, ok := m[d.Name]; !ok && !in[layer] {
			m[d.Name] = 0
		}
	}
}
