package main

import (
	"bytes"
	"fmt"
	"strings"
)

// selftest runs every workload briefly (quick sizes) and checks that
//   - every end-to-end metric named for the workload is printed with its
//     unit, and every generic end-to-end metric is reported and non-zero;
//   - a traced run reports every per-layer metric;
//   - an expected count deliberately offset by one is caught by the gate:
//     the run is marked incorrect.
func selftest(out string) error {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			c := newRun(w, 7, 0.5, trace, true, out)
			r, err := execute(c)
			if err != nil {
				return fmt.Errorf("%s (trace %v): %w", w, trace, err)
			}
			var buf bytes.Buffer
			if !emit(&buf, c, r) {
				return fmt.Errorf("%s (trace %v): run not correct: %v", w, trace, c.g.notes)
			}
			printed := buf.String()
			for _, m := range append([]metricDef{{"failed_frac", "ratio"}}, namedMetrics[w]...) {
				if !hasMetricLine(printed, "metric", m) {
					return fmt.Errorf("%s: metric %s [%s] not printed", w, m.name, m.unit)
				}
			}
			for _, m := range e2eMetrics {
				if v := r.e2e[m.name]; v.Unit != m.unit || v.Value <= 0 {
					return fmt.Errorf("%s: end-to-end metric %s = %v %s", w, m.name, v.Value, v.Unit)
				}
			}
			if trace {
				for _, m := range layerMetrics {
					if !hasMetricLine(printed, "layer", m) {
						return fmt.Errorf("%s: layer metric %s [%s] not printed", w, m.name, m.unit)
					}
				}
			}
		}
		c := newRun(w, 7, 0.5, false, true, out)
		c.g.corrupt.Store(true)
		r, err := execute(c)
		if err != nil {
			return fmt.Errorf("%s (corrupted count): %w", w, err)
		}
		if emit(&bytes.Buffer{}, c, r) || c.g.mismatches.Load() == 0 {
			return fmt.Errorf("%s: a corrupted expected count was not caught", w)
		}
		logf("selftest %s ok", w)
	}
	return nil
}

func hasMetricLine(printed, kind string, m metricDef) bool {
	for _, line := range strings.Split(printed, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[0] == kind && f[1] == m.name && f[3] == m.unit {
			return true
		}
	}
	return false
}
