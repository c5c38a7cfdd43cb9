package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// spec mirrors BENCHMARK.json, the single list of workloads, metric names,
// units and bounds; the harness attaches units from it and refuses to
// report a run that misses a declared end-to-end metric.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if sp.RunSeconds < 1 || len(sp.Workloads) == 0 || len(sp.EndToEnd) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json: missing run_seconds, workloads or end_to_end")
	}
	return &sp, nil
}

// find returns the declaration of a metric, end-to-end first.
func (sp *spec) find(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}
