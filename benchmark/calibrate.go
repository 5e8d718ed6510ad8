package main

import (
	"runtime"
	"sync"
	"time"
)

// The reference box is a shared 2-vCPU VM whose speed shifts by a third
// for minutes at a time, with no steal time the guest could subtract:
// identical runs read 0.80-1.30 s within a quarter of an hour, and the
// raw median of ten passes of lazy_1m_fedavg moved 40% between two sets
// of the same commit taken back to back. No bound the contract allows
// survives that, so every timed section is bracketed by a fixed
// reference computation that belongs to the benchmark, not to the
// simulator, and its time is divided by how much slower than calNominal
// the reference ran. Over three sets of ten passes of one commit the
// largest shift of a set's median client_updates_per_s fell from 17% to
// 4% (sync_cnn_noniid), 10% to 2% (server_heavy_k64), 40% to 15%
// (lazy_1m_fedavg) and 17% to 6% (async_faulted_ckpt); dividing by the
// square root of the slowdown, or by its 3/4 power, did worse. The
// reference is not slowed by exactly the factor each workload is, so
// the correction is partial. A change to the simulator cannot move the
// reference, so it can neither hide nor fake a gain.

// calNominal is what calibrate returns on the reference box when it is
// quiet (the fastest readings seen are 0.027-0.029 s).
const calNominal = 0.030

// calibrate times the reference computation on every worker at once:
// the two instruction mixes the workloads are made of, a dense float64
// multiply-accumulate over L2-sized blocks and a Fisher-Yates shuffle
// of 10^6 ints (8 MB, as one selection's Perm). It returns seconds.
func calibrate() float64 {
	workers := runtime.GOMAXPROCS(0)
	calOnce.Do(func() {
		calBufs, calSinks = make([][]int, workers), make([]float64, workers)
		for i := range calBufs {
			calBufs[i] = make([]int, 1_000_000)
		}
	})
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			calSinks[w] = calDense() + float64(calShuffle(calBufs[w], uint64(w+1)))
		}(w)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// timed runs fn and returns its wall seconds and how much slower than
// nominal the box ran around it, from a calibration before and one
// after. Smoke runs assert no timing and skip the calibrations.
func timed(s scale, fn func()) (wall, slowdown float64) {
	if s == smokeScale {
		t := time.Now()
		fn()
		return time.Since(t).Seconds(), 1
	}
	before := calibrate()
	t := time.Now()
	fn()
	wall = time.Since(t).Seconds()
	return wall, (before + calibrate()) / 2 / calNominal
}

var (
	calOnce sync.Once
	calBufs [][]int
	// calSinks keeps the compiler from discarding the reference
	// computation; each worker writes its own slot.
	calSinks []float64
)

const calDim = 96

func calDense() float64 {
	var a, b, c [calDim * calDim]float64
	for i := range a {
		a[i] = float64(i%7) * 0.25
		b[i] = float64(i%5) * 0.5
	}
	for rep := 0; rep < 36; rep++ {
		for i := 0; i < calDim; i++ {
			ci := c[i*calDim : (i+1)*calDim]
			for k := 0; k < calDim; k++ {
				aik := a[i*calDim+k]
				bk := b[k*calDim : (k+1)*calDim]
				for j := range ci {
					ci[j] += aik * bk[j]
				}
			}
		}
	}
	return c[calDim+1]
}

func calShuffle(p []int, seed uint64) int {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		j := int(seed % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p[len(p)/2]
}
