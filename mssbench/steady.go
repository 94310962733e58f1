package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steady is the steadiness report: it runs the workload cfg.steady times
// per set, each run a fresh process with its own seed, and prints per
// end-to-end metric the median and the interquartile spread (as a share of
// the median, quartiles as Python's statistics.quantiles computes them),
// and across sets how far each set's median moved from the first's. Bounds
// are read from BENCHMARK.json in the working directory when present.
func steady(cfg config, stdout, stderr io.Writer) error {
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			return err
		}
		for _, e := range spec.EndToEnd {
			bounds[e.Name] = e.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make([]map[string][]float64, cfg.sets)
	for s := 0; s < cfg.sets; s++ {
		values[s] = map[string][]float64{}
		for i := 0; i < cfg.steady; i++ {
			seed := int64(1 + s*cfg.steady + i)
			args := []string{"-mssd", cfg.mssd, "-work", cfg.work, "-workload", cfg.workload,
				"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-trace", "0"}
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &out, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("run seed %d: %w", seed, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res output
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("run seed %d: %w", seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("run seed %d: incorrect result", seed)
			}
			for name, v := range res.Metrics {
				values[s][name] = append(values[s][name], v.Value)
			}
			fmt.Fprintf(stderr, "steady: set %d seed %d done\n", s, seed)
		}
	}
	names := make([]string, 0, len(values[0]))
	for name := range values[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "workload %s, %d runs per set, %d sets, %gs runs\n", cfg.workload, cfg.steady, cfg.sets, cfg.seconds)
	fmt.Fprintf(stdout, "%-22s %7s %12s %8s %8s %s\n", "metric", "bound", "median", "iqr/med", "iqr/bnd", "set medians (shift vs set 0)")
	for _, name := range names {
		_, med, _ := quartiles(values[0][name])
		var spreads []string
		worst := 0.0
		for s := range values {
			q1, q, q3 := quartiles(values[s][name])
			sp := (q3 - q1) / math.Abs(q)
			worst = math.Max(worst, sp)
			spreads = append(spreads, fmt.Sprintf("%.4g (%+.1f%%, iqr %.1f%%)", q, 100*(q-med)/math.Abs(med), 100*sp))
		}
		bound := bounds[name]
		ratio := "-"
		if bound > 0 {
			ratio = fmt.Sprintf("%.2f", worst/bound)
		}
		fmt.Fprintf(stdout, "%-22s %7.3g %12.5g %7.1f%% %8s %s\n", name, bound, med, 100*worst, ratio, strings.Join(spreads, "  "))
		for s := range values {
			fmt.Fprintf(stdout, "    set %d: %.4g\n", s, values[s][name])
		}
	}
	return nil
}
