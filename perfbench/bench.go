package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchMetric is one metric declared in BENCHMARK.json.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the metrics its
// result line must carry, and the bounds the steadiness mode judges by.
type spec struct {
	RunSeconds int           `json:"run_seconds"`
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}
