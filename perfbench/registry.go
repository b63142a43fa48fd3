package main

import (
	"encoding/json"
	"fmt"

	"adelie/internal/workload"
)

// runExperiment is the benchmark's only call into the experiment
// registry: it resolves name at its default (or quick) scale, applies
// the integer overrides, runs it and returns the result table as JSON,
// the form every correctness check compares byte for byte. With traced
// set, the run joins a fresh observability session (the program's
// deterministic event trace), which is then dropped.
func runExperiment(name string, quick bool, set map[string]int64, traced bool) ([]byte, error) {
	e, ok := workload.Experiments.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("experiment %q is not registered", name)
	}
	p := e.Params(quick)
	for k, v := range set {
		if err := p.Set(k, v); err != nil {
			return nil, err
		}
	}
	if traced {
		_, end := workload.BeginObs(true, false)
		defer end()
	}
	t, err := e.Run(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return json.Marshal(t)
}
