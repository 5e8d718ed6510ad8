// Command pairs reads the result files of alternated benchmark pairs —
// the parent's fedbench and the change's, run side by side on the same
// seeds by pairs.sh — and prints one JSON line per pair, then one
// verdict per workload and metric.
//
//	go run ./tools/pairs [-moved] [-spec BENCHMARK.json] pairs.tsv
//
// Each line of pairs.tsv is one pair: workload, seed, the side that ran
// first (base or head), the base's result file and the head's. A verdict
// line gives, over the pairs, how often the head was better (wins), the
// exact one-sided sign test of that count, the median head/base ratio,
// both medians and the base's quartiles. It reads "better" when the head
// won at least nine tenths of the pairs (a tie is no win) and the
// medians are further apart than the base's quartile spread; "worse"
// when the head's median is worse than the base's by more than the
// metric's bound in the declaration, the benchmark's own regression rule
// (run_wall_raw_s, which has no bound, by the mirror of the rule for
// better); else "same". run_wall_raw_s is the
// median raw wall of the federations both sides ran, undivided by the
// calibration. The exact metrics and the history_sha256 set must be equal
// in every pair; the command exits 1 when they are not, unless -moved
// says that histories move on purpose.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// exact are the metrics a seed fixes: equal in every pair unless
// histories move.
var exact = []string{"final_acc", "rounds_to_acc", "wire_bytes_per_round", "ok_ops_share"}

// rawWall is the pseudo-metric of the raw federation walls.
const rawWall = "run_wall_raw_s"

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// pass is the part of a fedbench result pass the verdicts read.
type pass struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	FailedN  int    `json:"failed_runs"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	Samples map[string][]float64 `json:"samples"`
	History []string             `json:"history_sha256"`
}

// pair is one alternated pair's reading of every metric.
type pair struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	First       string             `json:"first"`
	Base        map[string]float64 `json:"base"`
	Head        map[string]float64 `json:"head"`
	SameHistory bool               `json:"same_history"`
}

// verdict is one workload and metric over all its pairs.
type verdict struct {
	Workload    string  `json:"workload"`
	Metric      string  `json:"metric"`
	Better      string  `json:"better"`
	Bound       float64 `json:"bound"`
	Pairs       int     `json:"pairs"`
	Wins        int     `json:"wins"`
	Ties        int     `json:"ties"`
	SignP       float64 `json:"sign_p"`
	MedianRatio float64 `json:"median_ratio"`
	BaseMedian  float64 `json:"base_median"`
	BaseQ1      float64 `json:"base_q1"`
	BaseQ3      float64 `json:"base_q3"`
	HeadMedian  float64 `json:"head_median"`
	Verdict     string  `json:"verdict"`
}

func main() {
	moved := flag.Bool("moved", false, "histories and exact metrics move on purpose: report them, do not fail")
	spec := flag.String("spec", "BENCHMARK.json", "the benchmark declaration naming the end-to-end metrics")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pairs [-moved] [-spec BENCHMARK.json] pairs.tsv")
		os.Exit(2)
	}
	if err := run(os.Stdout, *spec, flag.Arg(0), *moved); err != nil {
		fmt.Fprintln(os.Stderr, "pairs:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, specPath, listPath string, moved bool) error {
	var decl struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := readJSON(specPath, &decl); err != nil {
		return err
	}
	metrics := append(decl.EndToEnd, metricSpec{rawWall, "lower", 0})
	pairs, err := readPairs(listPath, metrics)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	var differ []string
	for _, p := range pairs {
		if err := enc.Encode(p); err != nil {
			return err
		}
		if !p.SameHistory {
			differ = append(differ, fmt.Sprintf("%s seed %d: history_sha256", p.Workload, p.Seed))
		}
		for _, m := range exact {
			if p.Base[m] != p.Head[m] {
				differ = append(differ, fmt.Sprintf("%s seed %d: %s %v → %v", p.Workload, p.Seed, m, p.Base[m], p.Head[m]))
			}
		}
	}
	for _, v := range verdicts(pairs, metrics) {
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	if len(differ) > 0 && !moved {
		return fmt.Errorf("histories or exact metrics differ (pass -moved if they move on purpose):\n  %s", strings.Join(differ, "\n  "))
	}
	return nil
}

// readPairs reads the pair list and both result files of each pair.
func readPairs(listPath string, metrics []metricSpec) ([]pair, error) {
	f, err := os.Open(listPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pairs []pair
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 5 {
			return nil, fmt.Errorf("%s: line %q: want workload, seed, first side, base file, head file", listPath, sc.Text())
		}
		seed, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", listPath, err)
		}
		var sides [2]pass
		for i, path := range fields[3:] {
			if sides[i], err = readPass(path, fields[0], seed); err != nil {
				return nil, err
			}
		}
		base, head := sides[0], sides[1]
		p := pair{Workload: fields[0], Seed: seed, First: fields[2], Base: map[string]float64{}, Head: map[string]float64{},
			SameHistory: slices.Equal(base.History, head.History)}
		for _, m := range metrics {
			p.Base[m.Name], p.Head[m.Name] = base.Metrics[m.Name].Value, head.Metrics[m.Name].Value
		}
		// The federations both sides ran are the same seeds in the same
		// order; the faster side may have run more.
		n := min(len(base.Samples[rawWall]), len(head.Samples[rawWall]))
		p.Base[rawWall], p.Head[rawWall] = median(base.Samples[rawWall][:n]), median(head.Samples[rawWall][:n])
		pairs = append(pairs, p)
	}
	return pairs, sc.Err()
}

// readPass reads a result file's one untraced pass of workload and seed.
func readPass(path, workload string, seed int64) (pass, error) {
	var rf struct {
		Passes []pass `json:"passes"`
	}
	if err := readJSON(path, &rf); err != nil {
		return pass{}, err
	}
	i := slices.IndexFunc(rf.Passes, func(p pass) bool { return p.Workload == workload && p.Seed == seed })
	switch {
	case i < 0:
		return pass{}, fmt.Errorf("%s: no pass of %s seed %d", path, workload, seed)
	case rf.Passes[i].FailedN > 0:
		return pass{}, fmt.Errorf("%s: %d failed runs", path, rf.Passes[i].FailedN)
	}
	return rf.Passes[i], nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdicts judges every workload and metric, in the order the pairs and
// the metrics come.
func verdicts(pairs []pair, metrics []metricSpec) []verdict {
	var out []verdict
	var workloads []string
	for _, p := range pairs {
		if !slices.Contains(workloads, p.Workload) {
			workloads = append(workloads, p.Workload)
		}
	}
	for _, wl := range workloads {
		for _, m := range metrics {
			var base, head, ratios []float64
			v := verdict{Workload: wl, Metric: m.Name, Better: m.Better, Bound: m.Bound}
			for _, p := range pairs {
				if p.Workload != wl {
					continue
				}
				b, h := p.Base[m.Name], p.Head[m.Name]
				base, head = append(base, b), append(head, h)
				if b != 0 {
					ratios = append(ratios, h/b)
				}
				switch {
				case b == h:
					v.Ties++
				case (h > b) == (m.Better == "higher"):
					v.Wins++
				}
			}
			v.Pairs = len(base)
			v.SignP = signTest(v.Pairs-v.Ties, v.Wins)
			v.MedianRatio, v.BaseMedian, v.HeadMedian = median(ratios), median(base), median(head)
			v.BaseQ1, v.BaseQ3 = quantile(base, 0.25), quantile(base, 0.75)
			v.Verdict = judge(v)
			out = append(out, v)
		}
	}
	return out
}

// judge reads a verdict, as the package comment states.
func judge(v verdict) string {
	gain := v.HeadMedian - v.BaseMedian // positive when the head is better
	if v.Better != "higher" {
		gain = -gain
	}
	spread, losses := v.BaseQ3-v.BaseQ1, v.Pairs-v.Ties-v.Wins
	switch {
	case v.Bound > 0 && -gain > v.Bound*math.Abs(v.BaseMedian):
		return "worse"
	case gain > spread && 10*v.Wins >= 9*v.Pairs:
		return "better"
	case v.Bound == 0 && -gain > spread && 10*losses >= 9*v.Pairs:
		return "worse"
	}
	return "same"
}

// signTest is the exact one-sided sign test: the chance of at least wins
// heads in n fair tosses (1 when n is 0).
func signTest(n, wins int) float64 {
	p := 0.0
	for k := wins; k <= n; k++ {
		p += binomial(n, k)
	}
	return p / math.Exp2(float64(n))
}

func binomial(n, k int) float64 {
	c := 1.0
	for i := 1; i <= k; i++ {
		c = c * float64(n-k+i) / float64(i)
	}
	return c
}

// median averages the two middle values of an even count (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile is the nearest-rank p-quantile, as benchmark/ reads it (0 for
// none).
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	return s[max(0, int(math.Ceil(p*float64(len(s))))-1)]
}
