package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fedcross/internal/core"
	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/models"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// maxOverheadShare is the tracing overhead above which the traced pass
// of sync_cnn_noniid fails: tracedBackend sits on its hottest path.
// overheadPairs is how many untraced/traced pairs it is the median of.
const (
	maxOverheadShare = 0.25
	overheadPairs    = 5
)

// timeMedian is the median wall time of reps calls of fn.
func timeMedian(reps int, fn func()) float64 {
	v := make([]float64, reps)
	for i := range v {
		t := time.Now()
		fn()
		v[i] = time.Since(t).Seconds()
	}
	return median(v)
}

// tracedReps is how many traced runs give the round percentiles about
// a hundred samples, so p90 has ten beyond it.
func tracedReps(rounds int, s scale) int {
	if s == smokeScale {
		return 1
	}
	reps := (100 + rounds - 1) / rounds
	if reps < 3 {
		reps = 3
	}
	return reps
}

// measureLayers is the traced pass on the first federation of seed: an
// untraced warm-up, then the same configuration again and again with
// the benchmark's wrappers interposed, then probes that time public
// layer functions on vectors taken from the run. Every run must return
// the same history byte for byte — a traced run that differs means a
// wrapper dropped an optional interface.
func measureLayers(w *workload, seed int64, s scale) (*pass, *tracer) {
	p := newPass(w, seed, true)
	tr := newTracer()
	dir, err := os.MkdirTemp("", "fedbench-")
	if err != nil {
		p.failf("temp dir: %v", err)
		return p, tr
	}
	defer os.RemoveAll(dir)

	sub := subSeed(seed, 0)
	builds := pick(s, 3, 1)
	var env *fl.Env
	for i := 0; i < builds; i++ {
		t := time.Now()
		env, err = w.build(sub, s)
		p.sample("data.build_s", time.Since(t).Seconds())
		if err != nil {
			p.failf("build seed %d: %v", sub, err)
			return p, tr
		}
	}
	cfg := w.config(sub, s, dir)
	rounds := w.rounds(cfg, s)
	workers := cfg.Workers()

	// Warm-up: its history is what every later run must reproduce.
	ref, refHash, _, _, ok := p.timeFederation(w, env, cfg, s, "warm-up", 1, 0)
	if !ok {
		p.FailedN++
	}
	if ref == nil {
		return p, tr
	}
	p.HistorySHA256 = []string{refHash}

	// Traced runs. The first overheadPairs are each preceded by an
	// untraced run of the same configuration: the box's speed shifts
	// between one minute and the next, so tracing overhead is read from
	// neighbours in time, as the median over pairs.
	var (
		cache         data.CacheStats
		mallocs, heap uint64
		gcPauseNS     uint64
		algo          fl.Algorithm
	)
	inner := tensor.CurrentBackend()
	reps := tracedReps(rounds, s)
	for i := 0; i < reps; i++ {
		untraced := 0.0
		if i < overheadPairs {
			_, hash, walls, _, ok := p.timeFederation(w, env, cfg, s, fmt.Sprintf("untraced %d", i), 0, 1)
			if hash != refHash {
				p.failf("untraced run %d: history differs from the warm-up run", i)
				ok = false
			}
			if !ok {
				p.FailedN++
			}
			if len(walls) == 0 {
				return p, tr
			}
			untraced = walls[0]
		}
		var (
			h        *fl.History
			a        fl.Algorithm
			err      error
			ms0, ms1 runtime.MemStats
		)
		coldStart(env)
		stats0, _ := env.Fed.SourceStats()
		runtime.ReadMemStats(&ms0)
		tensor.SetBackend(tracedBackend{inner: inner, t: tr})
		wall, slow := timed(s, func() {
			tr.beginRun(i)
			h, a, err = w.run(env, cfg, s, tr)
			tr.endRun()
		})
		tensor.SetBackend(inner)
		runtime.ReadMemStats(&ms1)
		stats1, _ := env.Fed.SourceStats()
		cache.Hits += stats1.Hits - stats0.Hits
		cache.Misses += stats1.Misses - stats0.Misses
		cache.PrefetchHits += stats1.PrefetchHits - stats0.PrefetchHits
		cache.Evictions += stats1.Evictions - stats0.Evictions
		mallocs += ms1.Mallocs - ms0.Mallocs
		heap += ms1.TotalAlloc - ms0.TotalAlloc
		gcPauseNS += ms1.PauseTotalNs - ms0.PauseTotalNs
		if untraced > 0 {
			p.sample("trace.overhead_share", (wall/slow-untraced)/untraced)
		}
		p.Runs++
		if !p.checkRun(fmt.Sprintf("traced run %d", i), env, h, err) {
			p.FailedN++
			return p, tr
		}
		algo = a
		if n := len(tr.holds); n != 0 {
			p.failf("traced run %d: %d leases were never released", i, n)
			p.FailedN++
		}
		if historyHash(h) != refHash {
			p.failf("traced run %d: history differs from the untraced runs (a wrapper hides an interface the engine asserts on)", i)
			p.FailedN++
		}
	}

	vals := map[string]float64{}
	for _, m := range perLayer {
		vals[m.Name] = 0 // a metric that does not apply to this workload reads 0
	}
	fr := float64(reps)
	updates := float64(ref.Comm.ModelsUp)

	// Spans.
	a := analyse(tr.spans)
	for name, v := range a.samples {
		p.Samples[name] = v
	}
	// Both sides of each pair are divided by the box's slowdown; every
	// other per-layer time is raw.
	vals["trace.overhead_share"] = median(p.Samples["trace.overhead_share"])
	vals["data.lease_calls"] = float64(len(a.samples["data.shard_s"])) / fr
	vals["data.shard_s_p50"] = quantile(a.samples["data.shard_s"], 0.5)
	vals["data.shard_s_p95"] = quantile(a.samples["data.shard_s"], 0.95)
	vals["fl.engine_gap_s_p50"] = quantile(a.samples["fl.engine_gap_s"], 0.5)
	vals["fl.down_s_p50"] = quantile(a.samples["fl.down_s"], 0.5)
	vals["fl.train_wall_s_p50"] = quantile(a.samples["fl.train_wall_s"], 0.5)
	vals["fl.post_train_s_p50"] = quantile(a.samples["fl.post_train_s"], 0.5)
	vals["fl.train_busy_s"] = a.busy / fr
	if w.async != nil {
		vals["fl.async_train_share"] = a.busy / (float64(workers) * sum(a.samples["fl.run_s"]))
	} else if tw := sum(a.samples["fl.train_wall_s"]); tw > 0 {
		vals["fl.pool_idle_share"] = 1 - a.busy/(float64(workers)*tw)
	}
	roundPrefix := "baselines"
	if _, ok := algo.(*core.FedCross); ok {
		roundPrefix = "core"
		vals["core.global_s"] = quantile(a.samples["algo.global_s"], 0.5)
	}
	if w.async == nil {
		vals[roundPrefix+".round_s_p50"] = quantile(a.samples["algo.round_s"], 0.5)
		vals[roundPrefix+".round_s_p90"] = quantile(a.samples["algo.round_s"], 0.9)
	}

	// Counters.
	gemmBusy := float64(tr.gemm.busyNS.Load()) / 1e9
	vals["tensor.gemm_calls_per_update"] = float64(tr.gemm.calls.Load()) / fr / updates
	vals["tensor.gemm_flops_per_update"] = float64(tr.gemm.flops.Load()) / fr / updates
	vals["tensor.gemm_busy_s"] = gemmBusy / fr
	if gemmBusy > 0 {
		vals["tensor.gemm_gflops"] = float64(tr.gemm.flops.Load()) / 1e9 / gemmBusy
	}
	vals["tensor.elemwise_busy_s"] = float64(tr.elem.busyNS.Load()) / 1e9 / fr
	vals["fl.allocs_per_round"] = float64(mallocs) / fr / float64(rounds)
	vals["fl.alloc_bytes_per_round"] = float64(heap) / fr / float64(rounds)
	vals["fl.gc_pause_s"] = float64(gcPauseNS) / 1e9 / fr
	if leases := float64(cache.Hits + cache.Misses); leases > 0 {
		vals["data.cache_hit_ratio"] = float64(cache.Hits) / leases
		vals["data.prefetch_hit_ratio"] = float64(cache.PrefetchHits) / leases
	}
	vals["data.cache_evictions"] = float64(cache.Evictions) / fr
	vals["data.build_s"] = median(p.Samples["data.build_s"])
	vals["data.leases_outstanding"] = float64(env.Fed.OutstandingLeases())
	vals["models.replicas_outstanding"] = float64(models.Replicas(env.Model).Outstanding())

	// Exact counts from the history.
	vals["fl.retries"] = float64(ref.Retries)
	vals["fl.crashes"] = float64(ref.Crashes)
	vals["fl.fault_drops"] = float64(ref.FaultDrops)
	vals["fl.stragglers"] = float64(ref.Stragglers)
	vals["fl.degraded_rounds"] = float64(ref.Degraded)

	p.probe(vals, w, s, env, cfg, algo, int(vals["data.lease_calls"])/rounds)
	p.resumeLeg(vals, w, s, env, cfg, dir, refHash)

	if post := vals["fl.post_train_s_p50"]; post > 0 && roundPrefix == "core" {
		// Transport.Up encodes each upload as the client would and decodes
		// it as the server does; the pass-through wire does neither.
		wire := 0.0
		if cfg.Transport.Codec != "" && cfg.Transport.Codec != "identity" {
			wire = float64(cfg.ClientsPerRound) * (vals["nn.codec_encode_s"] + vals["nn.codec_decode_s"])
		}
		vals["core.post_train_coverage"] = (wire + vals["core.simmatrix_s"] + vals["core.crossaggr_s"]) / post
	}
	if w.name == "sync_cnn_noniid" && s == fullScale && vals["trace.overhead_share"] > maxOverheadShare {
		p.failf("trace.overhead_share %.3f exceeds %.2f: tracedBackend's per-call timestamps are too costly, sample them", vals["trace.overhead_share"], maxOverheadShare)
	}
	p.set(perLayer, vals)
	return p, tr
}

// probeReps is how often a probe repeats; its median is reported.
const probeReps = 9

// probe times public layer functions, after the runs, on real inputs:
// the middleware (or global) vectors of the last traced run, the
// workload's own codec, the test set.
func (p *pass) probe(vals map[string]float64, w *workload, s scale, env *fl.Env, cfg fl.Config, algo fl.Algorithm, uploads int) {
	rng := tensor.NewRNG(cfg.Seed)
	var net *nn.Sequential
	vals["models.new_s"] = timeMedian(probeReps, func() { net = env.Model.New(rng.Split()) })

	// K model-sized vectors: FedCross's middleware, else the deployment
	// model repeated (the async engine does not expose its model, so a
	// fresh initialisation stands in; values do not change these costs).
	k := cfg.ClientsPerRound
	if w.async != nil {
		k = w.async(s).Buffer
	}
	if uploads < 2 {
		uploads = 2
	}
	if uploads > k {
		uploads = k
	}
	var vecs []nn.ParamVector
	global := nn.FlattenParams(net.Params())
	fc, isFedCross := algo.(*core.FedCross)
	switch {
	case isFedCross:
		vecs = fc.Middleware()
		global = fc.Global()
	default:
		if algo != nil {
			global = algo.Global()
		}
		for i := 0; i < uploads; i++ {
			vecs = append(vecs, global.Clone())
		}
	}
	n := len(global)
	dst := make(nn.ParamVector, n)

	codec, err := nn.CodecByName(cfg.Transport.Codec)
	if err != nil {
		p.failf("probe: %v", err)
		return
	}
	var buf []byte
	vals["nn.codec_encode_s"] = timeMedian(probeReps, func() { buf = codec.Encode(buf[:0], global) })
	vals["nn.codec_payload_bytes"] = float64(len(buf))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	vals["nn.codec_decode_s"] = timeMedian(probeReps, func() {
		if _, err := codec.Decode(dst, buf); err != nil {
			p.failf("probe: decode: %v", err)
		}
	})
	runtime.ReadMemStats(&ms1)
	vals["nn.codec_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / probeReps

	vals["nn.lerp_s"] = timeMedian(probeReps, func() { nn.LerpVectorsTo(dst, vecs[0], vecs[1], 0.99) })
	vals["nn.paramio_s"] = timeMedian(probeReps, func() {
		if err := nn.LoadParams(net.Params(), global); err != nil {
			p.failf("probe: %v", err)
		}
		nn.FlattenParamsInto(dst, net.Params())
	})

	vals["fl.select_s"] = timeMedian(probeReps, func() {
		fl.CohortPlan(0, cfg.Seed, env.NumClients(), cfg.ClientsPerRound)
	})
	vals["fl.eval_s"] = timeMedian(probeReps, func() {
		if _, _, err := fl.Evaluate(env.Model, global, env.Fed.Test, 64, cfg.Allowance()); err != nil {
			p.failf("probe: %v", err)
		}
	})
	weights := make([]float64, uploads)
	for i := range weights {
		weights[i] = float64(1 + i)
	}
	vals["fl.reduce_s"] = timeMedian(probeReps, func() {
		if _, err := fl.ReduceUploads(cfg.Reducer, vecs[:uploads], weights); err != nil {
			p.failf("probe: %v", err)
		}
	})
	if rc, ok := algo.(fl.RoundCheckpointer); ok {
		var state bytes.Buffer
		vals["fl.savestate_s"] = timeMedian(probeReps, func() {
			state.Reset()
			if err := rc.SaveState(&state); err != nil {
				p.failf("probe: %v", err)
			}
		})
		vals["fl.savestate_bytes"] = float64(state.Len())
	}
	if isFedCross {
		opts := core.DefaultOptions()
		vals["core.simmatrix_s"] = timeMedian(probeReps, func() {
			core.NewSimMatrix(vecs, opts.Similarity, cfg.Allowance())
		})
		next := make([]nn.ParamVector, len(vecs))
		for i := range next {
			next[i] = make(nn.ParamVector, n)
		}
		vals["core.crossaggr_s"] = timeMedian(probeReps, func() {
			for i := range vecs {
				nn.LerpVectorsTo(next[i], vecs[i], vecs[(i+1)%len(vecs)], opts.Alpha)
			}
		})
	}
}

// resumeLeg stops a run at its final boundary, which writes a snapshot,
// and times the run that resumes from it: Init, snapshot load and state
// restore with no round left to train. The resumed history must equal
// the uninterrupted one.
func (p *pass) resumeLeg(vals map[string]float64, w *workload, s scale, env *fl.Env, cfg fl.Config, dir, refHash string) {
	path := filepath.Join(dir, "resume.ckpt")
	rounds := w.rounds(cfg, s)
	stop := cfg
	stop.Checkpoint = fl.CheckpointOptions{Path: path, Every: cfg.Checkpoint.Every, StopAfterRound: rounds}
	coldStart(env)
	if _, _, err := w.run(env, stop, s, nil); !errors.Is(err, fl.ErrStopped) {
		p.failf("resume leg: run stopped at round %d returned %v, want ErrStopped", rounds, err)
		return
	}
	p.Runs++
	if fi, err := os.Stat(path); err != nil {
		p.failf("resume leg: %v", err)
	} else {
		vals["fl.snapshot_bytes"] = float64(fi.Size())
	}
	resume := cfg
	resume.Checkpoint = fl.CheckpointOptions{Path: path, Every: cfg.Checkpoint.Every, Resume: true}
	t := time.Now()
	h, _, err := w.run(env, resume, s, nil)
	vals["fl.resume_s"] = time.Since(t).Seconds()
	p.Runs++
	if p.checkRun("resume leg", env, h, err) && historyHash(h) != refHash {
		p.failf("resume leg: resumed history differs from the uninterrupted run")
	}
}

// analysis is what the spans of the traced runs decompose into.
type analysis struct {
	samples map[string][]float64
	busy    float64 // Σ lease holds, seconds, over every traced run
}

func analyse(spans []span) analysis {
	a := analysis{samples: map[string][]float64{}}
	add := func(name string, ns int64) { a.samples[name] = append(a.samples[name], float64(ns)/1e9) }
	// Per round: first lease, last release.
	type window struct{ first, last int64 }
	win := map[int]*window{}
	for _, sp := range spans {
		d := sp.End - sp.Start
		switch sp.Name {
		case spanRun:
			add("fl.run_s", d)
		case spanGlobal:
			add("algo.global_s", d)
		case spanShard:
			add("data.shard_s", d)
		case spanHold:
			a.busy += float64(d) / 1e9
		}
		if sp.Name != spanShard && sp.Name != spanHold || sp.Parent < 0 || spans[sp.Parent].Name != spanRound {
			continue
		}
		wd := win[sp.Parent]
		if wd == nil {
			wd = &window{first: sp.Start, last: sp.End}
			win[sp.Parent] = wd
		}
		if sp.Start < wd.first {
			wd.first = sp.Start
		}
		if sp.End > wd.last {
			wd.last = sp.End
		}
	}
	prev := -1
	for i, sp := range spans {
		if sp.Name != spanRound {
			continue
		}
		add("algo.round_s", sp.End-sp.Start)
		if prev >= 0 && spans[prev].Run == sp.Run {
			add("fl.engine_gap_s", sp.Start-spans[prev].End)
		}
		prev = i
		if wd := win[i]; wd != nil {
			add("fl.down_s", wd.first-sp.Start)
			add("fl.train_wall_s", wd.last-wd.first)
			add("fl.post_train_s", sp.End-wd.last)
		}
	}
	return a
}
