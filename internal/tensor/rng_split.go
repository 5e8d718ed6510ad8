package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
)

// The Dir(β) draw split across parts (docs/ARCHITECTURE.md, "Dir(β)
// across cores"). How many words a Gamma draw reads depends only on the
// stream position it starts from, so from any position the stream parses
// into draws in exactly one way, and two parses that share one position
// share every draw after it. Part 0 draws from the generator itself; each
// later part draws from a copy skipped to a guessed position and records
// where its first window draws start. Part k then draws on one at a time
// until its position is one part k+1 recorded: from there the parses
// agree, and part k+1's draws are the serial ones shifted by a known
// offset. A part that does not meet its successor within the window draws
// the rest itself. The ring is a function of the position alone, so the
// part that ends the vector carries the serial generator state: it draws
// on if it stopped short, and takes back with unread what it drew past
// the end.

// splitWindow is how many leading draws a later part records the
// positions of: the window its predecessor must meet it in.
const splitWindow = 4096

// splitChunk is how many draws a later part makes between reports of
// its progress.
const splitChunk = 1 << 13

// zigguratWords is the mean number of words NormFloat64 reads: one on its
// fast path, more for a wedge or the tail (measured over 2·10^7 draws).
const zigguratWords = 1.040926

// DirichletIntoSplit is DirichletInto with the Gamma draws split over up
// to parts parts of p, which fan runs: fan must call each function it is
// given once and return when all have returned, and may run them side by
// side. p and the generator's state after the call are DirichletInto's,
// bit for bit. Each part holds at least 2·parts·splitWindow entries, so
// a short vector takes fewer parts, and one under 2^15 entries is drawn
// by DirichletInto alone.
func (g *RNG) DirichletIntoSplit(p []float64, alpha float64, parts int, fan func(...func())) {
	g.dirichletSplit(p, alpha, parts, fan, splitWindow, 0)
}

// splitPart is one part of a split draw: the local draws it made start
// at p[lo] (those past hi in extra), and from local draw j on they are
// the serial draws from index start. drawn counts the local draws in p
// so far, −1 before the part starts; met is 1 once the part has met its
// successor, −1 once it has failed to.
type splitPart struct {
	g          *RNG
	lo, hi     int
	head, tail []uint64 // start positions of the first window and the last len(tail) local draws
	extra      []float64
	j, start   int
	drawn      atomic.Int64
	met        int8
}

// splitTrace reports what a split did, for the tests: the parts it ran,
// the boundaries that met, how many draws the part that ended the vector
// took back (negative: drew on), and whether part 0 summed part 1's draws
// as they landed.
type splitTrace struct {
	parts, met, over int
	chased           bool
}

// dirichletSplit is DirichletIntoSplit with the window and an offset, in
// words, added to every guessed start.
func (g *RNG) dirichletSplit(p []float64, alpha float64, parts int, fan func(...func()), window, skew int) splitTrace {
	n := len(p)
	for parts > 1 && n < 2*parts*parts*window {
		parts--
	}
	if parts <= 1 {
		g.DirichletInto(p, alpha)
		return splitTrace{parts: 1}
	}
	d, c := gammaDC(alpha)
	mean := gammaMeanWords(alpha, d, c)
	ps := make([]splitPart, parts)
	fns := make([]func(), parts)
	// sum holds the normalising sum of the serial draws before index
	// summed. Part 0 sums its own draws as it makes them; if part 1 is
	// running by then, part 0 meets it and sums part 1's draws as they
	// land, while they are still in cache.
	sum, summed, chased := 0.0, 0, false
	for k := range ps {
		pt := &ps[k]
		pt.lo, pt.hi = k*n/parts, (k+1)*n/parts
		pt.drawn.Store(-1)
		if k == 0 {
			pt.g = g
			fns[k] = func() {
				sum, summed = g.gammaRun(p[:pt.hi], alpha, d, c, 0, nil), pt.hi
				b := &ps[1]
				if b.drawn.Load() < 0 {
					return
				}
				for b.drawn.Load() < int64(window) {
					runtime.Gosched()
				}
				if !pt.meet(b, alpha, d, c) {
					return
				}
				for _, v := range pt.extra {
					sum += v
				}
				for at := b.lo + b.j; at < b.hi; {
					to := b.lo + int(b.drawn.Load())
					for _, v := range p[at:to] {
						sum += v
					}
					if at = to; at < b.hi {
						runtime.Gosched()
					}
				}
				summed += len(pt.extra) + b.hi - b.lo - b.j
				chased = true
			}
			continue
		}
		pt.g = &RNG{seed: g.seed, src: g.src}
		pt.g.r = rand.New(&pt.g.src)
		pt.head = make([]uint64, window)
		if k == parts-1 {
			pt.tail = make([]uint64, (parts-1)*window)
		}
		fns[k] = func() {
			// The guess is the draws before lo, less a quarter window, times
			// the mean words a draw reads. Guessing low, the last part stops
			// short of the end, so part 0's running sum stays usable.
			pt.drawn.Store(0)
			pt.g.src.skip(uint64(max(0, int(math.Round(float64(pt.lo-window/4)*mean))+skew)))
			q, w := p[pt.lo:pt.hi], len(pt.tail)
			pt.g.gammaRun(q[:window], alpha, d, c, 0, pt.head)
			for i := window; i < len(q)-w; i += splitChunk {
				pt.drawn.Store(int64(i))
				pt.g.gammaRun(q[i:min(i+splitChunk, len(q)-w)], alpha, d, c, 0, nil)
			}
			pt.drawn.Store(int64(len(q) - w))
			pt.g.gammaRun(q[len(q)-w:], alpha, d, c, 0, pt.tail)
			pt.drawn.Store(int64(len(q)))
		}
	}
	fan(fns...)

	// Meet each part with the next, in order; the first that does not
	// meet ends the vector, and the parts after it are dropped.
	tr := splitTrace{parts: parts, chased: chased}
	fin := 0
	for ; fin < parts-1 && ps[fin].meet(&ps[fin+1], alpha, d, c); fin++ {
		tr.met++
	}
	for k := 1; k <= fin; k++ {
		a := &ps[k-1]
		ps[k].start = a.start + a.hi - a.lo + len(a.extra) - a.j
	}
	pt := &ps[fin]
	end := pt.start + pt.hi - pt.lo + len(pt.extra) - pt.j
	tr.over = end - n
	if end > n {
		// Only the last part overshoots, by at most len(tail) draws.
		for at := pt.tail[len(pt.tail)-(end-n)]; pt.g.src.n > at; {
			pt.g.src.unread()
		}
	}
	// Move the blocks into place — those moving up from the last down,
	// then those moving down from the first up, so none is overwritten
	// before it moves — then the extra draws, and draw the rest.
	for k := fin; k >= 1; k-- {
		if q := &ps[k]; q.start > q.lo+q.j {
			copy(p[q.start:n], p[q.lo+q.j:q.hi])
		}
	}
	for k := 1; k <= fin; k++ {
		if q := &ps[k]; q.start < q.lo+q.j {
			copy(p[q.start:], p[q.lo+q.j:q.hi])
		}
	}
	for k := range fin + 1 {
		if q := &ps[k]; len(q.extra) > 0 { // never the last part's, which may end past n
			copy(p[q.start+q.hi-q.lo-q.j:], q.extra)
		}
	}
	if end < n {
		pt.g.gammaRun(p[end:], alpha, d, c, 0, nil)
	}
	g.src = pt.g.src
	if summed > n { // part 0 summed draws past the end
		sum, summed = 0, 0
	}
	for _, v := range p[summed:] {
		sum += v
	}
	if sum == 0 {
		g.normalise(p, sum)
		return tr
	}
	for k := range fns {
		q := p[k*n/parts : (k+1)*n/parts]
		fns[k] = func() { divide(q, sum) }
	}
	fan(fns...)
	return tr
}

// meet draws on from a, one draw at a time, until its position is where
// one of b's first len(b.head) draws starts, and sets b.j to that draw.
// It reports false, leaving a where it stopped, when the position passes
// b's window or a has drawn a window of extra draws. A second call
// reports the first's answer.
func (a *splitPart) meet(b *splitPart, alpha, d, c float64) bool {
	for j := 0; a.met == 0; {
		for j < len(b.head) && b.head[j] < a.g.src.n {
			j++
		}
		if j == len(b.head) || len(a.extra) == len(b.head) {
			a.met = -1
		} else if b.head[j] == a.g.src.n {
			a.met, b.j = 1, j
		} else {
			a.extra = append(a.extra, a.g.gamma(alpha, d, c))
		}
	}
	return a.met > 0
}

// gammaMeanWords is the mean number of words a Gamma(alpha) draw reads:
// the boost's u below shape 1, then per Marsaglia–Tsang attempt one
// normal and, unless v ≤ 0, w, over 1/P(accept) attempts. P(v > 0) and
// P(accept) are the trapezoid rule over the normal density on (−1/c, 8]
// with 64 intervals. It only places a part's guessed start: an error
// costs time, never bits.
func gammaMeanWords(alpha, d, c float64) float64 {
	const steps = 64
	lo := max(-1/c, -8)
	live, accept := 0.0, 0.0
	for i := range steps + 1 {
		x := lo + float64(i)*(8-lo)/steps
		w := math.Exp(-x * x / 2)
		if i == 0 || i == steps {
			w /= 2
		}
		if v := 1 + c*x; v > 0 {
			v = v * v * v
			live += w
			accept += w * math.Exp(min(0, x*x/2+d*(1-v+math.Log(v))))
		}
	}
	// Both sums are scaled by the interval over √(2π).
	words := (zigguratWords*steps*math.Sqrt(2*math.Pi)/(8-lo) + live) / accept
	if alpha < 1 {
		words++
	}
	return words
}
