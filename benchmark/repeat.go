package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// manifest is BENCHMARK.json, the contract this harness is run under.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// runRepeat runs the selected workloads n times, each time with the next
// seed and a set-up of its own, and holds every end-to-end metric's spread
// on every workload — the distance between its first and third quartile as
// a share of its median — to the metric's bound in BENCHMARK.json. setup_s
// is printed with the rest but, as in the acceptance rule, not held to it.
func runRepeat(ctx context.Context, root, tmp string, selected []workload, seed int64, sz sizes, n int) error {
	man, err := readManifest(root)
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per run
	failed := 0
	for i := 0; i < n; i++ {
		e, setup, err := timedSetUp(ctx, root, tmp, seed+int64(i), sz.setups)
		if err != nil {
			return err
		}
		for _, w := range selected {
			res, err := runWorkload(ctx, e, w, seed+int64(i), sz, setup)
			if err != nil {
				os.RemoveAll(e.dir)
				return err
			}
			failed += res.Failed
			if res.Failed > 0 {
				for _, note := range res.notes {
					fmt.Printf("run %d %s: %s\n", i+1, w.name, note)
				}
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, mv := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], mv.Value)
			}
			fmt.Printf("run %d/%d %s done (%d attempted, %d failed)\n", i+1, n, w.name, res.Attempted, res.Failed)
		}
		os.RemoveAll(e.dir)
	}

	fmt.Printf("\n%-18s %-20s %14s %14s %14s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	over := 0
	for _, w := range selected {
		for _, mm := range man.EndToEnd {
			q1, q2, q3 := quartiles(values[w.name][mm.Name])
			spread := (q3 - q1) / q2
			mark := ""
			if spread > mm.Bound && mm.Name != "setup_s" {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-18s %-20s %14.4f %14.4f %14.4f %7.1f%% %7.1f%%%s\n", w.name, mm.Name, q1, q2, q3, 100*spread, 100*mm.Bound, mark)
		}
	}
	switch {
	case failed > 0:
		return fmt.Errorf("%d operations failed", failed)
	case over > 0:
		return fmt.Errorf("%d metric x workload spreads exceed their bound", over)
	}
	return nil
}
