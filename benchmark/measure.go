package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"fedcross/internal/fl"
	"fedcross/internal/models"
)

// metricValue is one reading in the form the driver parses.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pass is what one invocation (one workload, one seed, traced or not)
// measured: the metrics, the raw per-run samples behind them, and every
// correctness check that failed.
type pass struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Trace    bool                   `json:"trace"`
	Runs     int                    `json:"runs"`
	FailedN  int                    `json:"failed_runs"`
	Failures []string               `json:"failures,omitempty"`
	Metrics  map[string]metricValue `json:"metrics"`
	Samples  map[string][]float64   `json:"samples"`
	// HistorySHA256 lists the history hash of each distinct federation
	// run, for reviewers; nothing pins it, so an arithmetic change can
	// pass without editing the benchmark.
	HistorySHA256 []string `json:"history_sha256"`
}

func newPass(w *workload, seed int64, trace bool) *pass {
	return &pass{
		Workload: w.name, Seed: seed, Trace: trace,
		Metrics: map[string]metricValue{}, Samples: map[string][]float64{},
	}
}

func (p *pass) failf(format string, args ...any) {
	p.Failures = append(p.Failures, fmt.Sprintf(format, args...))
}

func (p *pass) sample(name string, v float64) { p.Samples[name] = append(p.Samples[name], v) }

// set records the metrics of one table, reading each value from vals;
// a metric the pass did not compute is reported as a failed check
// rather than silently left out.
func (p *pass) set(specs []metricSpec, vals map[string]float64) {
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok {
			p.failf("metric %s was not measured", m.Name)
		}
		p.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
}

// subSeed derives the i-th federation of an invocation from its seed.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// historyHash is the sha256 of a history's gob encoding: two runs agree
// byte for byte exactly when their hashes do.
func historyHash(h *fl.History) string {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		return "unencodable: " + err.Error()
	}
	s := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(s[:])
}

// cpuSeconds is this process's user+system CPU time so far; peakRSSMiB
// its high-water resident set. One invocation measures one workload, so
// neither is polluted by another workload's heap.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// checkRun applies the per-run correctness checks and reports whether
// the run passed.
func (p *pass) checkRun(label string, env *fl.Env, h *fl.History, err error) bool {
	before := len(p.Failures)
	if err != nil {
		p.failf("%s: %v", label, err)
		return false
	}
	if n := env.Fed.OutstandingLeases(); n != 0 {
		p.failf("%s: %d shard leases outstanding", label, n)
	}
	if n := models.Replicas(env.Model).Outstanding(); n != 0 {
		p.failf("%s: %d model replicas outstanding", label, n)
	}
	if h.TotalBytes() <= 0 {
		p.failf("%s: no bytes crossed the wire", label)
	}
	return len(p.Failures) == before
}

// lostUpdates counts the client updates of a run that never reached an
// aggregation: crashes, wire losses after retries, deadline stragglers,
// and the whole cohort of every below-quorum round.
func lostUpdates(h *fl.History, updates, rounds int) int {
	lost := h.Crashes + h.FaultDrops + h.Stragglers + h.Degraded*(updates/rounds)
	if lost > updates {
		lost = updates
	}
	return lost
}

// repeats is how often one federation is run. A shared box slows some
// runs by a third for a second or so; the faster of two identical runs
// is the better reading of what the code costs.
const repeats = 2

// timeFederation runs one configuration warm+reps times and returns the
// first history with its hash, and the wall and CPU seconds of the reps,
// each divided by the box's slowdown around it (see calibrate.go; the
// warm-up runs are checked but not timed). Every run must pass
// checkRun and return the same history byte for byte; ok reports
// whether all did.
func (p *pass) timeFederation(w *workload, env *fl.Env, cfg fl.Config, s scale, label string, warm, reps int) (first *fl.History, hash string, walls, cpus []float64, ok bool) {
	ok = true
	for r := -warm; r < reps; r++ {
		label := fmt.Sprintf("%s run %d", label, r)
		var (
			h   *fl.History
			err error
			cpu float64
		)
		coldStart(env)
		wall, slow := timed(s, func() {
			cpu = cpuSeconds()
			h, _, err = w.run(env, cfg, s, nil)
			cpu = cpuSeconds() - cpu
		})
		p.Runs++
		if !p.checkRun(label, env, h, err) {
			ok = false
			if err != nil {
				return first, hash, walls, cpus, false
			}
		}
		switch hh := historyHash(h); {
		case first == nil:
			first, hash = h, hh
		case hh != hash:
			p.failf("%s: history differs from the first run of the same configuration", label)
			ok = false
		}
		if r >= 0 {
			walls, cpus = append(walls, wall/slow), append(cpus, cpu/slow)
			p.sample("run_wall_raw_s", wall)
			p.sample("run_slowdown", slow)
		}
	}
	return first, hash, walls, cpus, ok
}

// measureEndToEnd is the untraced pass. It measures at least minFeds
// federations derived from seed, and keeps adding federations until it
// has measured for the requested time. Each federation is built cold (a
// setup_s sample) and then run `repeats` times with the identical
// configuration; the faster repeat is the federation's wall and CPU
// time. The first federation is also run once beforehand to warm the
// replica pool and page in the heap. Accuracy, wire and failure metrics
// are means over the first minFeds federations only, so they are exact
// for a seed however fast the machine is.
func measureEndToEnd(w *workload, seed int64, seconds float64, s scale, minFeds int) *pass {
	p := newPass(w, seed, false)
	dir, err := os.MkdirTemp("", "fedbench-")
	if err != nil {
		p.failf("temp dir: %v", err)
		return p
	}
	defer os.RemoveAll(dir)

	lost, attempted := 0, 0
	start := time.Now()
	for f := 0; f < minFeds || time.Since(start).Seconds() < seconds; f++ {
		sub := subSeed(seed, f)
		// Collect the previous federation now, so that how much of it is
		// still resident does not depend on when the collector last ran.
		runtime.GC()
		var (
			env *fl.Env
			err error
		)
		setup, slow := timed(s, func() { env, err = w.build(sub, s) })
		if err != nil {
			p.failf("build seed %d: %v", sub, err)
			p.FailedN++
			break
		}
		cfg := w.config(sub, s, dir)
		rounds := w.rounds(cfg, s)
		warm := 0
		if f == 0 {
			warm = 1
		}
		h, hash, walls, cpus, ok := p.timeFederation(w, env, cfg, s, fmt.Sprintf("federation %d (seed %d)", f, sub), warm, pick(s, repeats, 1))
		if !ok {
			p.FailedN++
		}
		if len(walls) == 0 {
			break
		}
		updates := h.Comm.ModelsUp
		wall := sorted(walls)[0]
		p.sample("setup_s", setup/slow)
		p.Samples["run_wall_s"] = append(p.Samples["run_wall_s"], walls...)
		p.Samples["run_cpu_s"] = append(p.Samples["run_cpu_s"], cpus...)
		p.sample("fed_wall_s", wall)
		p.sample("fed_cpu_s", sorted(cpus)[0])
		p.sample("fed_updates", float64(updates))
		p.sample("fed_updates_per_s", float64(updates)/wall)
		if f < minFeds {
			reached := h.RoundsToAcc(w.accTarget)
			if reached < 0 {
				reached = rounds // censored: the target was not reached inside the run
			}
			p.sample("final_acc", h.Final().TestAcc)
			p.sample("rounds_to_acc", float64(reached))
			p.sample("wire_bytes_per_round", float64(h.TotalBytes())/float64(rounds))
			p.HistorySHA256 = append(p.HistorySHA256, hash)
			lost += lostUpdates(h, updates, rounds)
			attempted += updates
		}
	}
	if attempted == 0 {
		return p
	}
	acc := mean(p.Samples["final_acc"])
	if s == fullScale && acc < w.accFloor {
		p.failf("mean final accuracy %.4f below the floor %.2f", acc, w.accFloor)
	}
	p.set(endToEnd, map[string]float64{
		"setup_s":              median(p.Samples["setup_s"]),
		"client_updates_per_s": median(p.Samples["fed_updates_per_s"]),
		"cpu_s_per_update":     sum(p.Samples["fed_cpu_s"]) / sum(p.Samples["fed_updates"]),
		"rounds_to_acc":        mean(p.Samples["rounds_to_acc"]),
		"final_acc":            acc,
		"wire_bytes_per_round": mean(p.Samples["wire_bytes_per_round"]),
		"peak_rss_mb":          peakRSSMiB(),
		"ok_ops_share":         1 - float64(lost)/float64(attempted),
	})
	return p
}
