package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchFile is the part of BENCHMARK.json the tests check.
type benchFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	Workloads []struct{ Name, Why string }          `json:"workloads"`
}

func loadBench(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkMatchesCode pins BENCHMARK.json to the metric tables the
// runs emit (same names, units and directions) and to the workloads'
// reasons.
func TestBenchmarkMatchesCode(t *testing.T) {
	b := loadBench(t)
	if len(b.EndToEnd) != len(endToEndMetrics) || len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d/%d end-to-end/per-layer metrics, the code %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, m := range b.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, code says %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound < 0.10 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside [0.10, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, code says %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	why := map[string]string{}
	for _, w := range workloads {
		why[w.name] = w.why
	}
	for _, w := range b.Workloads {
		if got, ok := why[w.Name]; !ok || got != w.Why {
			t.Errorf("workload %q: BENCHMARK.json says why %q, code %q", w.Name, w.Why, got)
		}
	}
}

// TestWorkloadsShort runs every workload untraced and traced at a tiny
// size: each run must pass its correctness checks and emit every metric
// BENCHMARK.json names, with its unit, on the last line of its output.
func TestWorkloadsShort(t *testing.T) {
	b := loadBench(t)
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "0.2", "--trace", traced,
				"-workdir", t.TempDir()}, &out, &errOut)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not a result: %v\n%s%s", w.name, traced, err, out.String(), errOut.String())
			}
			if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: exit %d, result %+v\n%s%s", w.name, traced, code, res, out.String(), errOut.String())
			}
			if !strings.Contains(out.String(), "check ok") {
				t.Errorf("%s trace=%s: no correctness check ran", w.name, traced)
			}
			want := map[string]string{}
			if traced == "0" {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.name, traced, name, got, unit)
				} else if traced == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, got.Value)
				}
			}
		}
	}
}

// TestCompare checks the comparator's verdicts and exit code: a gated
// workload's regression fails the comparison, an ungated one's does not.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name, workload string, scale float64) string {
		path := filepath.Join(dir, name)
		for seed, v := range []float64{100, 101, 99, 100, 102} {
			rec := &record{Workload: workload, Seed: int64(seed), Metrics: map[string]metricValue{
				"op_p50_us": {Value: v * scale, Unit: "us"},
				"ops_per_s": {Value: 1000, Unit: "ops/s"},
			}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	bench := filepath.Join("..", "..", "BENCHMARK.json")
	for _, c := range []struct {
		workload string
		scale    float64
		code     int
		want     string
	}{
		{"kernel-oltp", 1.01, 0, "2 same, 0 regressed"},
		{"kernel-oltp", 2, 1, "1 regressed"},
		{"global-ingest", 2, 0, "regressed (ungated)"},
	} {
		old := write(c.workload+"-old", c.workload, 1)
		new := write(fmt.Sprintf("%s-new-%v", c.workload, c.scale), c.workload, c.scale)
		var out bytes.Buffer
		if code := compareRecords(&out, &out, bench, old, new); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s ×%v: exit %d, want %d and %q\n%s", c.workload, c.scale, code, c.code, c.want, out.String())
		}
		os.Remove(old)
	}
}

// TestQuartiles matches Python's statistics.quantiles(range(1, 11), n=4).
func TestQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
