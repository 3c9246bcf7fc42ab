package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd and perLayer are BENCHMARK.json's metric lists: every workload
// reports every end-to-end metric on an untraced run and every per-layer
// metric on a traced one.
var endToEnd, perLayer []metricDef

// loadMetrics reads the metric lists from BENCHMARK.json at path.
func loadMetrics(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		return fmt.Errorf("%s lists no end_to_end or no per_layer metrics", path)
	}
	endToEnd, perLayer = spec.EndToEnd, spec.PerLayer
	return nil
}

func lookupMetric(name string) metricDef {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d
			}
		}
	}
	return metricDef{Name: name, Unit: "?", Better: "?"}
}

// zeroLayers fills every per-layer metric a workload did not measure with 0:
// the workload bypasses that layer.
func zeroLayers(o *outcome) {
	for _, d := range perLayer {
		if _, ok := o.layer[d.Name]; !ok {
			o.layer[d.Name] = 0
		}
	}
}
