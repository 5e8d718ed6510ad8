package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// Verdicts of -compare.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge compares the readings of one end-to-end metric on one workload.
// A metric is worse when its median worsened by more than its bound, and
// better when it improved by more than either side's own quartile
// spread. Where either side's spread is wider than the bound the medians
// prove nothing, so the verdict is unresolved unless every reading of
// one side beats every reading of the other.
func judge(m metricSpec, old, new []float64) string {
	mo, mn := median(old), median(new)
	sign := 1.0 // positive change is worse
	if m.Better == "higher" {
		sign = -1
	}
	change := 0.0
	if mo != 0 {
		change = sign * (mn - mo) / math.Abs(mo)
	}
	newWins, oldWins := true, true
	for _, o := range old {
		for _, n := range new {
			if sign*(n-o) >= 0 {
				newWins = false
			}
			if sign*(n-o) <= 0 {
				oldWins = false
			}
		}
	}
	spread := math.Max(quartileSpread(old), quartileSpread(new))
	if spread > m.Bound && !newWins && !oldWins {
		return unresolved
	}
	switch {
	case change > m.Bound:
		return worse
	case change < 0 && -change > spread:
		return better
	}
	return same
}

// e2eReadings gathers, per workload, every untraced pass's reading of
// each end-to-end metric, and the failed-run total.
func e2eReadings(rf *resultFile) (vals map[string]map[string][]float64, failed map[string]int) {
	vals, failed = map[string]map[string][]float64{}, map[string]int{}
	for _, p := range rf.Passes {
		if p.Trace {
			continue
		}
		if vals[p.Workload] == nil {
			vals[p.Workload] = map[string][]float64{}
		}
		for name, v := range p.Metrics {
			vals[p.Workload][name] = append(vals[p.Workload][name], v.Value)
		}
		failed[p.Workload] += p.FailedN + len(p.Failures)
	}
	return vals, failed
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns an error on any worse verdict, a lower ok_ops_share, or more
// failed checks.
func compareFiles(out io.Writer, oldPath, newPath string) error {
	var oldRF, newRF resultFile
	if err := readJSONFile(oldPath, &oldRF); err != nil {
		return err
	}
	if err := readJSONFile(newPath, &newRF); err != nil {
		return err
	}
	oldVals, oldFailed := e2eReadings(&oldRF)
	newVals, newFailed := e2eReadings(&newRF)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median\told spread\tn\tnew median\tnew spread\tn\tbound\tverdict")
	bad := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			o, n := oldVals[w.name][m.Name], newVals[w.name][m.Name]
			if len(o) == 0 || len(n) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t%d\t-\t-\t%d\t%.2f\tmissing\n", w.name, m.Name, m.Unit, len(o), len(n), m.Bound)
				bad++
				continue
			}
			v := judge(m, o, n)
			if m.Name == "ok_ops_share" && median(n) < median(o) {
				v = worse // any rise in failed operations is a regression
			}
			if v == worse {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.3f\t%d\t%.6g\t%.3f\t%d\t%.2f\t%s\n",
				w.name, m.Name, m.Unit, median(o), quartileSpread(o), len(o), median(n), quartileSpread(n), len(n), m.Bound, v)
		}
		if newFailed[w.name] > oldFailed[w.name] {
			fmt.Fprintf(tw, "%s\tfailed checks\tcount\t%d\t\t\t%d\t\t\t\t%s\n", w.name, oldFailed[w.name], newFailed[w.name], worse)
			bad++
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("compare: %d rows worse or missing", bad)
	}
	return nil
}
