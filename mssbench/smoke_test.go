package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestSmoke runs tiny scripts of every workload through a freshly built
// mssd, end-to-end and traced, and checks that each run is correct and
// emits exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds mssd and drives it")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark defines %v", names, workloadNames)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range spec.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[1][m.Name] = m.Unit
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "mssd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/mssd").CombinedOutput(); err != nil {
		t.Fatalf("building mssd: %v\n%s", err, out)
	}
	for _, w := range workloadNames {
		for trace, tr := range []string{"0", "1"} {
			t.Run(w+"/trace"+tr, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := realMain([]string{"-mssd", bin, "-work", dir, "-workload", w, "-seed", "3", "-trace", tr, "-smoke"}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res output
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				var got []string
				for name, m := range res.Metrics {
					got = append(got, name)
					if unit, ok := want[trace][name]; !ok {
						t.Errorf("metric %s is not declared", name)
					} else if unit != m.Unit {
						t.Errorf("metric %s has unit %s, declared %s", name, m.Unit, unit)
					}
				}
				if len(got) != len(want[trace]) {
					sort.Strings(got)
					t.Errorf("emitted %d metrics, declared %d: %v", len(got), len(want[trace]), got)
				}
				if trace == 0 {
					for name, m := range res.Metrics {
						if m.Value == 0 {
							t.Errorf("end-to-end metric %s is 0", name)
						}
					}
					if res.Metrics["ok_ops_frac"].Value != 1 {
						t.Errorf("ok_ops_frac = %v", res.Metrics["ok_ops_frac"].Value)
					}
				}
			})
		}
	}
}
