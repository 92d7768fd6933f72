package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchDef is the part of BENCHMARK.json the comparator reads.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// ungatedBound classifies metrics BENCHMARK.json gives no bound: the
// ungated end-to-end metrics and the per-layer metrics. Their verdicts are
// reported but never fail the comparison.
const ungatedBound = 0.10

// setupFloor is the smallest set-up time change that counts: a set-up of
// microseconds can move by a quarter without anyone waiting longer.
const setupFloor = 0.005 // seconds

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

type pairKey struct {
	workload string
	trace    bool
	metric   string
}

func groupRecords(recs []record) map[pairKey][]float64 {
	out := map[pairKey][]float64{}
	for _, r := range recs {
		for name, v := range r.Metrics {
			k := pairKey{r.Workload, r.Trace, name}
			out[k] = append(out[k], v.Value)
		}
	}
	return out
}

// verdict judges new against old for one metric: regressed or improved
// when the median moved by more than bound in the worse or better
// direction, same otherwise. A spread (IQR over median) on either side
// wider than the bound leaves the pair unresolved, unless every new run
// beats (or loses to) every old run.
func verdict(old, new []float64, lowerBetter bool, bound float64) string {
	mo, mn := median(old), median(new)
	if mo == 0 {
		return "unresolved"
	}
	worse := (mn - mo) / math.Abs(mo)
	if !lowerBetter {
		worse = -worse
	}
	better := func(a, b float64) bool { return (a < b) == lowerBetter && a != b }
	allBetter, allWorse := true, true
	for _, n := range new {
		for _, o := range old {
			allBetter = allBetter && better(n, o)
			allWorse = allWorse && better(o, n)
		}
	}
	switch {
	case math.Max(spread(old), spread(new)) > bound:
		switch {
		case allBetter:
			return "improved"
		case allWorse:
			return "regressed"
		}
		return "unresolved"
	case worse > bound:
		return "regressed"
	case -worse > bound:
		return "improved"
	}
	return "same"
}

// compareRecords prints one row per workload × metric present in both
// record files, with each side's median and quartiles, and judges it by
// the bound BENCHMARK.json gives the metric. A pair is gated when
// BENCHMARK.json lists both its workload and its metric. It returns 1
// when a gated pair regressed.
func compareRecords(stdout, stderr io.Writer, benchPath, oldPath, newPath string) int {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "tesla-perf: %v\n", err)
		return 2
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		fmt.Fprintf(stderr, "tesla-perf: %s: %v\n", benchPath, err)
		return 2
	}
	gatedWorkload := map[string]bool{}
	for _, w := range def.Workloads {
		gatedWorkload[w.Name] = true
	}
	bounds := map[string]float64{}
	lower := map[string]bool{}
	for _, m := range def.EndToEnd {
		bounds[m.Name] = m.Bound
		lower[m.Name] = m.Better == "lower"
	}
	for _, m := range def.PerLayer {
		lower[m.Name] = m.Better == "lower"
	}
	for _, m := range ungatedMetrics {
		lower[m.name] = m.better == "lower"
	}

	oldRecs, err := readRecords(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "tesla-perf: %v\n", err)
		return 2
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "tesla-perf: %v\n", err)
		return 2
	}
	olds, news := groupRecords(oldRecs), groupRecords(newRecs)
	var keys []pairKey
	for k := range olds {
		if _, ok := news[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return !a.trace
		}
		return a.metric < b.metric
	})

	fmt.Fprintf(stdout, "%-14s %-26s %28s %28s %8s %13s %6s  %s\n",
		"workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "change", "spread o/n", "bound", "verdict")
	counts := map[string]int{}
	regressed := 0
	for _, k := range keys {
		o, n := olds[k], news[k]
		bound, gated := bounds[k.metric]
		gated = gated && !k.trace && gatedWorkload[k.workload]
		if !gated {
			bound = ungatedBound
		}
		isLower, known := lower[k.metric]
		v := verdict(o, n, isLower || !known, bound)
		if k.metric == "setup_s" && math.Abs(median(n)-median(o)) < setupFloor {
			v = "same"
		}
		label := v
		if gated {
			counts[v]++
			if v == "regressed" {
				regressed++
			}
		} else {
			label += " (ungated)"
		}
		oq1, oq3 := quartiles(o)
		nq1, nq3 := quartiles(n)
		fmt.Fprintf(stdout, "%-14s %-26s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+7.1f%% %6.1f%%/%5.1f%% %5.0f%%  %s\n",
			k.workload, k.metric, median(o), oq1, oq3, median(n), nq1, nq3, 100*(median(n)-median(o))/math.Abs(median(o)),
			100*spread(o), 100*spread(n), 100*bound, label)
	}
	fmt.Fprintf(stdout, "gated pairs: %d improved, %d same, %d regressed, %d unresolved\n",
		counts["improved"], counts["same"], counts["regressed"], counts["unresolved"])
	if regressed > 0 {
		return 1
	}
	return 0
}
