package tensor

import "fmt"

// Winograd convolution: nn.Conv2D's forward pass, parameter gradients and
// input gradient for the one geometry every product convolution uses —
// 3×3 kernels, stride 1, padding 1 — by minimal filtering (Lavin & Gray,
// "Fast Algorithms for Convolutional Neural Networks", arXiv:1509.09308).
// Each 2×2 block of outputs (a tile) is computed from the 4×4 window of
// padded input under it in a transformed domain of sixteen components,
// where the 3×3 filter costs one multiply per component: 16 multiplies a
// tile and channel pair, against 36 for the direct sum.
//
//	forward      F(2×2, 3×3)   Y  = Aᵀ [Σ_c U ⊙ V] A         U = G g Gᵀ,  V = Bᵀ d B
//	input grad   F(2×2, 3×3)   dx = Aᵀ [Σ_o U' ⊙ Bᵀ dy' B] A  U' from the flipped, transposed filter
//	weight grad  F(3×3, 2×2)   dW = G̃ᵀ [Σ_tiles (Ã dy Ãᵀ) ⊙ V] G̃
//
// with dy' the output gradient zero-padded by one (ForwardPool also
// folds a ReLU and a 2×2 max pool into the forward pass's output
// transform: a tile is one pool window), and
//
//	Bᵀ = [1 0 −1 0; 0 1 1 0; 0 −1 1 0; 0 1 0 −1]   G = [1 0 0; ½ ½ ½; ½ −½ ½; 0 0 1]
//	Aᵀ = [1 1 1 0; 0 1 −1 −1]                       Ã = [1 0; 1 1; 1 −1; 0 1],  G̃ = G with its last row negated
//
// (Ã is A with its −1 folded into G̃; the weight gradient is the forward
// pass differentiated through the same transforms, so it reads the
// transformed input tiles V the forward pass left behind.) Everything is
// float32 between float64 boundaries: the output, the input gradient, the
// bias and the parameter gradients stay float64, each float32 result
// widened once.
//
// The exact operation order of every transform and sum is spelled out by
// the Go twins below (winoFiltersGo, winoInputGo, winoOutputGo,
// winoGradDyGo, winoGradMulGo, winoGradsGo) and is the contract: one
// rounding per operation, no fused multiply-add, each product added to
// its accumulator with the accumulator first. The AVX2 kernels reproduce
// them bit for bit; the twins are what runs without AVX2, off amd64 and
// under purego.
//
// Per step. SetWeights transforms eight channel pairs' filters a block
// and writes each twice, to u for the forward pass and, turned half way
// round, to ut for the input gradient. GradParams makes the transformed
// output gradient a run of groups at a time and sums the weight gradient
// over it in registers, from +0 in the first run; the lanes go through
// acc only from one run to the next, and a batch whose groups fit one
// run never touches it. The transform back to the 3×3 taps and the bias
// lanes' collapse then run eight output channels a register.
//
// Layout. Tiles are worked eight at a time, one per ymm lane. A quad is
// four tiles: two tile pairs, each two horizontally adjacent tiles (an
// output block 2 rows × 4 columns), the second pair four columns right of
// the first when output rows are a multiple of eight wide, else two rows
// down. Lane l of a group holds quad l/4 (two per group, consecutive over
// the batch; an odd last quad fills both halves), pair l%4/2, tile l%2.
//
// Non-finite values. The transforms add the pixels of a window together,
// so one NaN or ±Inf in an input window, a filter or a tile of the output
// gradient poisons every output of its tile, every output channel of
// that tile and, in the weight gradient, every tap of the (input, output)
// channel pair: a superset of the cells the direct sum makes non-finite,
// and an infinity the direct sum would keep may come out as NaN.
// Finite results stay within the bound nn's TestConvMatchesFloat64Reference
// states and checks.

// Winograd is the transformed-domain state of one convolution of fixed
// geometry: the transformed filters, forward and flipped, both written
// by SetWeights; the transformed input tiles of the last Forward or
// ForwardPool (read by GradParams); and the batch-sized tile tables.
// Workspaces are resized per call, so steady-state batches allocate
// nothing; acc, live only between runs of groups, is sized by the first
// batch that needs two.
type Winograd struct {
	inC, outC, h, w int
	pw, ph          int // padded plane
	qs              int // quads per sample
	quads           []int
	vertical        bool
	vec             bool

	u, ut []float32 // transformed filters: u[o][c][16] forward, ut[c][o][16] input gradient
	flip  []int     // flip[o·inC + c]: where ut holds pair (o, c), (c·outC + o)·16

	tabs [2]winoTabs // the last two batch sizes' tables: a shard's full and short batches
	cur  *winoTabs

	v      []float32 // [group][inC][16][8] transformed input tiles
	vBatch int       // the batch v holds, -1 before the first Forward
	s      []float32 // a run of groups' transformed output gradient: [16][group][outC][8], or [group][outC][16][8] for GradInput
	mw     []float32 // [16][inC][outC] weight-gradient sums
	acc    []float32 // the weight-gradient lanes between runs of groups
	db     []float32 // [outC][8] bias-gradient lanes
}

// winoRunBytes sizes a run of groups: what a run makes and consumes —
// its transformed output gradient and its transformed tiles, (outC +
// inC) × 16 components × 8 lanes a group — stays in a 48 KiB L1 beside
// the gradient rows it reads.
const winoRunBytes = 40 << 10

// winoL2RunBytes sizes a run of the weight gradient whose lanes, carried
// from run to run, do not fit in winoRunBytes beside a group: they go
// through L2 between runs however short the runs are, so a run takes as
// many groups as this much of L2 holds, and fewer runs carry them.
const winoL2RunBytes = 256 << 10

// run is the groups a run of the input gradient takes, at least one.
func (p *Winograd) run() int { return max(1, winoRunBytes/p.groupBytes()) }

// gradRun is the groups a run of the weight gradient takes, at least
// one: with the carried lanes, 16 × inC × outC × 8, in winoRunBytes when
// they fit beside a group, else in winoL2RunBytes without them.
func (p *Winograd) gradRun() int {
	if lanes := 16 * p.inC * p.outC * winoLanes * 4; lanes+p.groupBytes() <= winoRunBytes {
		return (winoRunBytes - lanes) / p.groupBytes()
	}
	return max(1, winoL2RunBytes/p.groupBytes())
}

// groupBytes is what a run makes and consumes a group.
func (p *Winograd) groupBytes() int { return (p.outC + p.inC) * 16 * winoLanes * 4 }

// winoTabs are one batch size's group tables: for each group the offsets
// of its two quads' first tile origin in five frames — the padded input
// and the padded output gradient (window origins), the output and the
// input gradient (output positions), and the pooled output (a tile's
// window).
type winoTabs struct {
	batch, groups   int
	dup             bool // the last group's high half repeats its low one
	x, dy, y, dx, p []int
}

// winoLanes is the tile count of one group: eight float32 lanes.
const winoLanes = 8

// NewWinograd returns the transformed-domain state for a convolution of
// geometry g with outC output channels, or nil when g is not one the
// kernels take: a 3×3 kernel at stride 1 and padding 1 over planes an
// even number of rows high and a multiple of four columns wide whose
// tile pairs pair up (rows a multiple of eight wide, or a multiple of
// four high).
func NewWinograd(g ConvGeom, outC int) *Winograd {
	if g.Validate() != nil || outC < 1 || g.KH != 3 || g.KW != 3 || g.Stride != 1 || g.Pad != 1 ||
		g.InH%2 != 0 || g.InW%4 != 0 || (g.InW%8 != 0 && g.InH%4 != 0) {
		return nil
	}
	p := &Winograd{inC: g.InC, outC: outC, h: g.InH, w: g.InW, pw: g.InW + 2, ph: g.InH + 2,
		vertical: g.InW%8 != 0, vec: winoVector(outC), vBatch: -1}
	if p.vertical {
		for ty := 0; ty < p.h/2; ty += 2 {
			for px := 0; px < p.w/4; px++ {
				p.quads = append(p.quads, 2*ty, 4*px)
			}
		}
	} else {
		for ty := 0; ty < p.h/2; ty++ {
			for qx := 0; qx < p.w/8; qx++ {
				p.quads = append(p.quads, 2*ty, 8*qx)
			}
		}
	}
	p.qs = len(p.quads) / 2
	p.u = make([]float32, outC*p.inC*16)
	p.ut = make([]float32, outC*p.inC*16)
	for o := range outC {
		for c := range p.inC {
			p.flip = append(p.flip, (c*outC+o)*16)
		}
	}
	p.mw = make([]float32, 16*p.inC*outC)
	p.db = make([]float32, outC*winoLanes)
	return p
}

// Vector reports whether the AVX2 kernels run this convolution: amd64
// with AVX2, not purego, and at least eight output channels (the
// weight-gradient product's channel block).
func (p *Winograd) Vector() bool { return p.vec }

// d2 is the offset of a quad's second tile pair in a frame of row
// stride rs.
func (p *Winograd) d2(rs int) int {
	if p.vertical {
		return 2 * rs
	}
	return 4
}

// layout selects the group tables for a batch, building them over the
// older of the two kept when neither is for this batch.
func (p *Winograd) layout(batch int) *winoTabs {
	for i := range p.tabs {
		if t := &p.tabs[i]; t.x != nil && t.batch == batch {
			p.cur = t
			return t
		}
	}
	t := &p.tabs[0]
	if p.cur == t {
		t = &p.tabs[1]
	}
	nq := batch * p.qs
	t.batch, t.groups, t.dup = batch, (nq+1)/2, nq%2 == 1
	// A quad's origin (oy, ox) is at oy·rs + ox, or in the pooled frame
	// (shift 1, rs = W/2) at its window (oy/2)·rs + ox/2.
	frame := func(tab []int, sample, rs int, shift uint) []int {
		tab = tab[:0]
		for k := 0; k < 2*t.groups; k++ {
			k := min(k, nq-1)
			q := k % p.qs
			tab = append(tab, k/p.qs*sample+(p.quads[2*q]*rs+p.quads[2*q+1])>>shift)
		}
		return tab
	}
	padded := p.ph * p.pw
	t.x = frame(t.x, p.inC*padded, p.pw, 0)
	t.dy = frame(t.dy, p.outC*padded, p.pw, 0)
	t.y = frame(t.y, p.outC*p.h*p.w, p.w, 0)
	t.dx = frame(t.dx, p.inC*p.h*p.w, p.w, 0)
	t.p = frame(t.p, p.outC*p.h*p.w/4, p.w/2, 1)
	p.cur = t
	return t
}

// winoFilter writes U = G g Gᵀ for one 3×3 filter (row-major taps,
// each converted to float32 first): over each column of g, then over
// each row of the result,
//
//	(a, b, c) → (a, ½((a + c) + b), ½((a + c) − b), c)
func winoFilter(u *[16]float32, w *[9]float64) {
	g0, g1, g2 := float32(w[0]), float32(w[1]), float32(w[2])
	g3, g4, g5 := float32(w[3]), float32(w[4]), float32(w[5])
	g6, g7, g8 := float32(w[6]), float32(w[7]), float32(w[8])
	s0, s1, s2 := g0+g6, g1+g7, g2+g8
	winoRow((*[4]float32)(u[0:4]), g0, g1, g2)
	winoRow((*[4]float32)(u[4:8]), 0.5*(s0+g3), 0.5*(s1+g4), 0.5*(s2+g5))
	winoRow((*[4]float32)(u[8:12]), 0.5*(s0-g3), 0.5*(s1-g4), 0.5*(s2-g5))
	winoRow((*[4]float32)(u[12:16]), g6, g7, g8)
}

func winoRow(u *[4]float32, a, b, c float32) {
	s := a + c
	*u = [4]float32{a, 0.5 * (s + b), 0.5 * (s - b), c}
}

// SetWeights transforms the layer's float64 filters W (outC × inC·9,
// row-major 3×3 per channel pair) for the forward pass and, flipped and
// transposed, for the input gradient.
func (p *Winograd) SetWeights(w []float64) { p.setWeights(w, p.vec) }

// SetWeightsGo is SetWeights on the portable scalar kernel.
func (p *Winograd) SetWeightsGo(w []float64) { p.setWeights(w, false) }

func (p *Winograd) setWeights(w []float64, vec bool) {
	if len(w) != p.outC*p.inC*9 {
		panic(fmt.Sprintf("tensor: Winograd weights have %d elements, want %d", len(w), p.outC*p.inC*9))
	}
	winoFilters(p.u, p.ut, w, p.flip, vec)
}

// winoFiltersGo writes U[o][c] for channel pairs from on, and each into
// ut at flip[o·inC + c] turned half way round. Turning g round reverses
// the rows of G g and the columns of (G g) Gᵀ — a + c is c + a — so it
// is U[o][c] with its rows and columns each permuted (3, 1, 2, 0): a
// copy, no arithmetic.
func winoFiltersGo(u, ut []float32, w []float64, flip []int, from int) {
	for oc := from; oc < len(flip); oc++ {
		u := (*[16]float32)(u[oc*16:])
		winoFilter(u, (*[9]float64)(w[oc*9:]))
		t := (*[16]float32)(ut[flip[oc]:])
		t[0], t[1], t[2], t[3] = u[15], u[13], u[14], u[12]
		t[4], t[5], t[6], t[7] = u[7], u[5], u[6], u[4]
		t[8], t[9], t[10], t[11] = u[11], u[9], u[10], u[8]
		t[12], t[13], t[14], t[15] = u[3], u[1], u[2], u[0]
	}
}

func (p *Winograd) checkLen(what string, have, want int) {
	if have < want {
		panic(fmt.Sprintf("tensor: Winograd %s has %d elements, want %d", what, have, want))
	}
}

// Forward writes the convolution of batch samples: in holds them as
// float32 zero-padded planes (inC × (H+2) × (W+2) each), out receives
// float64(y) + bias[o], sample-major (batch × outC·H·W). The transformed
// input tiles are kept for GradParams.
func (p *Winograd) Forward(out []float64, in []float32, bias []float64, batch int) {
	p.forward(out, in, bias, batch, p.vec)
}

// ForwardPool is Forward with a ReLU and a 2×2 stride-2 max pool folded
// into the output transform, where a tile is one pool window. Per window
// and channel it writes to out (batch × outC·(H/2)·(W/2)) the first of
// the tile's four outputs, in (dy, dx) order, strictly greater than a
// maximum that starts at +0 — ties keep the earliest, NaN never wins, +0
// when nothing is positive — and to taps its tap code, 2·dy + dx, or −1
// when nothing won. Each output is float64(y) + bias[o] as Forward writes
// it, so out is MaxPool2x2 over Forward's output, bit for bit, and taps
// its argmax relative to each window. The transformed input tiles are
// kept for GradParams, as Forward keeps them.
func (p *Winograd) ForwardPool(out []float64, taps []int32, in []float32, bias []float64, batch int) {
	p.forwardPool(out, taps, in, bias, batch, p.vec)
}

func (p *Winograd) forward(out []float64, in []float32, bias []float64, batch int, vec bool) {
	p.checkLen("output", len(out), batch*p.outC*p.h*p.w)
	t := p.input(in, bias, batch, vec)
	winoOutput(out, nil, p.v, p.u, bias, t.y, t.groups, p.inC, p.outC, p.h*p.w, p.w, p.d2(p.w), vec)
}

func (p *Winograd) forwardPool(out []float64, taps []int32, in []float32, bias []float64, batch int, vec bool) {
	n := batch * p.outC * p.h * p.w / 4
	p.checkLen("pooled output", len(out), n)
	p.checkLen("tap codes", len(taps), n)
	t := p.input(in, bias, batch, vec)
	// The pooled frame's second window pair is one window row down, or
	// two windows on.
	winoOutput(out, taps, p.v, p.u, bias, t.p, t.groups, p.inC, p.outC, p.h*p.w/4, 0, p.d2(p.w/2)/2, vec)
}

// input checks a forward pass's input and bias and transforms the input
// tiles, which it keeps for GradParams.
func (p *Winograd) input(in []float32, bias []float64, batch int, vec bool) *winoTabs {
	p.checkLen("input", len(in), batch*p.inC*p.ph*p.pw)
	p.checkLen("bias", len(bias), p.outC)
	t := p.layout(batch)
	p.v = resize32(p.v, t.groups*p.inC*16*winoLanes)
	p.vBatch = batch
	winoInput(p.v, in, t.x, t.groups, p.inC, p.ph*p.pw, p.pw, p.d2(p.pw), vec)
	return t
}

// GradParams adds the parameter gradients of the batch the last Forward
// ran to dW (outC × inC·9, W's layout) and dB (outC), each float32 sum
// widened and added in float64. dy is the output gradient as float32
// planes zero-padded by one (outC × (H+2) × (W+2) a sample).
func (p *Winograd) GradParams(dW, dB []float64, dy []float32, batch int) {
	p.gradParams(dW, dB, dy, batch, p.vec)
}

// GradParamsGo is GradParams on the portable scalar kernels.
func (p *Winograd) GradParamsGo(dW, dB []float64, dy []float32, batch int) {
	p.gradParams(dW, dB, dy, batch, false)
}

func (p *Winograd) gradParams(dW, dB []float64, dy []float32, batch int, vec bool) {
	if batch != p.vBatch {
		panic(fmt.Sprintf("tensor: Winograd GradParams on a batch of %d, the last Forward ran %d", batch, p.vBatch))
	}
	if len(dW) != p.outC*p.inC*9 || len(dB) != p.outC {
		panic(fmt.Sprintf("tensor: Winograd gradients have %d and %d elements, want %d and %d", len(dW), len(dB), p.outC*p.inC*9, p.outC))
	}
	p.checkLen("output gradient", len(dy), batch*p.outC*p.ph*p.pw)
	t := p.layout(batch)
	// The transformed output gradient is made and consumed a run of
	// groups at a time (gradRun); the sums start from +0 in the first run
	// and carry over in acc only between runs. The output gradient's
	// frame is the padded one shifted to the first interior cell: tile
	// origin (oy, ox) addresses dy at (oy+1, ox+1).
	run := p.gradRun()
	p.s = resize32(p.s, run*p.outC*16*winoLanes)
	if t.groups > run {
		p.acc = resize32(p.acc, 16*p.inC*((p.outC+7)&^7)*winoLanes)
	}
	clear(p.db)
	for g0 := 0; g0 == 0 || g0 < t.groups; g0 += run {
		n := min(run, t.groups-g0)
		last := g0+n == t.groups
		winoGradDy(p.s, p.db, dy[p.pw+1:], t.dy[2*g0:], n, p.outC, p.ph*p.pw, p.pw, p.d2(p.pw), t.dup && last, vec)
		winoGradMul(p.mw, p.acc, p.v[g0*p.inC*128:], p.s, n, p.inC, p.outC, g0 == 0, last, vec)
	}
	winoGrads(dW, dB, p.mw, p.db, p.inC, p.outC, vec)
}

// winoGradsGo turns the transformed-domain sums of output channels from
// on into G̃ᵀ M G̃ per channel pair — over each column of M, then over
// each row of the result,
//
//	(a, b, c, d) → (a + h, ½(b − c), h − d),  h = ½(b + c)
//
// — collapses their bias lanes, and adds both to the gradients.
func winoGradsGo(dW, dB []float64, mw, db []float32, from, inC, outC int) {
	n := inC * outC
	for o := from; o < outC; o++ {
		for c := 0; c < inC; c++ {
			m := mw[c*outC+o:]
			col := func(j int) (float32, float32, float32) {
				m1, m2 := m[(4+j)*n], m[(8+j)*n]
				h := float32(0.5 * (m1 + m2))
				return m[j*n] + h, 0.5 * (m1 - m2), h - m[(12+j)*n]
			}
			g := (*[9]float64)(dW[(o*inC+c)*9:])
			row := func(k int, x0, x1, x2, x3 float32) {
				h := float32(0.5 * (x1 + x2))
				g[3*k] += float64(x0 + h)
				g[3*k+1] += float64(0.5 * (x1 - x2))
				g[3*k+2] += float64(h - x3)
			}
			a0, b0, c0 := col(0)
			a1, b1, c1 := col(1)
			a2, b2, c2 := col(2)
			a3, b3, c3 := col(3)
			row(0, a0, a1, a2, a3)
			row(1, b0, b1, b2, b3)
			row(2, c0, c1, c2, c3)
		}
		l := db[o*winoLanes : (o+1)*winoLanes]
		dB[o] += float64(((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7])))
	}
}

// GradInput writes dLoss/dInput of the batch: dy as for GradParams, dx
// float64 and contiguous (batch × inC·H·W), each cell float64(y) with no
// bias, through the filters the last SetWeights took.
func (p *Winograd) GradInput(dx []float64, dy []float32, batch int) {
	p.gradInput(dx, dy, batch, p.vec)
}

func (p *Winograd) gradInput(dx []float64, dy []float32, batch int, vec bool) {
	p.checkLen("output gradient", len(dy), batch*p.outC*p.ph*p.pw)
	p.checkLen("input gradient", len(dx), batch*p.inC*p.h*p.w)
	t := p.layout(batch)
	run := p.run()
	p.s = resize32(p.s, run*p.outC*16*winoLanes)
	for g0 := 0; g0 < t.groups; g0 += run {
		n := min(run, t.groups-g0)
		winoInput(p.s, dy, t.dy[2*g0:], n, p.outC, p.ph*p.pw, p.pw, p.d2(p.pw), vec)
		winoOutput(dx, nil, p.s, p.ut, nil, t.dx[2*g0:], n, p.outC, p.inC, p.h*p.w, p.w, p.d2(p.w), vec)
	}
}

// resize32 returns buf with length n, reusing its storage when it can.
func resize32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// winoOrigin is the offset of lane l's tile in a group whose quads start
// at tab[2g] and tab[2g+1], in a frame whose second tile pair is d2 on.
func winoOrigin(tab []int, g, l, d2 int) int {
	return tab[2*g+l/4] + l%4/2*d2 + 2*(l%2)
}

// winoInputGo writes V = Bᵀ d B for every group and channel into
// v[g][c][ξ][lane], ξ = 4i + j. Rows first, then columns:
//
//	e[r] = (d[r][0] − d[r][2], d[r][1] + d[r][2], d[r][2] − d[r][1], d[r][1] − d[r][3])
//	V[·][j] = (e[0][j] − e[2][j], e[1][j] + e[2][j], e[2][j] − e[1][j], e[1][j] − e[3][j])
func winoInputGo(v, in []float32, tab []int, groups, chans, plane, pw, d2 int) {
	var d, e [4][4]float32
	for g := 0; g < groups; g++ {
		for c := 0; c < chans; c++ {
			dst := v[(g*chans+c)*128 : (g*chans+c+1)*128]
			for l := 0; l < winoLanes; l++ {
				win := in[winoOrigin(tab, g, l, d2)+c*plane:]
				for r := range d {
					copy(d[r][:], win[r*pw:r*pw+4])
				}
				for r := range e {
					e[r] = [4]float32{d[r][0] - d[r][2], d[r][1] + d[r][2], d[r][2] - d[r][1], d[r][1] - d[r][3]}
				}
				for j := 0; j < 4; j++ {
					dst[j*8+l] = e[0][j] - e[2][j]
					dst[(4+j)*8+l] = e[1][j] + e[2][j]
					dst[(8+j)*8+l] = e[2][j] - e[1][j]
					dst[(12+j)*8+l] = e[1][j] - e[3][j]
				}
			}
		}
	}
}

// winoOutputGo writes out[o] = float64(Aᵀ M A) + bias[o] (no add when
// bias is nil) for every group and output channel, with
//
//	M[ξ] = Σ_c u[o][c][ξ] · v[g][c][ξ]   c ascending from +0
//	Z[0][j] = (M[0][j] + M[1][j]) + M[2][j],  Z[1][j] = (M[1][j] − M[2][j]) − M[3][j]
//	Y[y] = ((Z[y][0] + Z[y][1]) + Z[y][2], (Z[y][1] − Z[y][2]) − Z[y][3])
//
// or, when taps is not nil, pools each tile: out and taps get one value
// and one tap code a tile, in a frame whose tiles are one element apart
// (ForwardPool).
func winoOutputGo(out []float64, taps []int32, v, u []float32, bias []float64, tab []int, groups, inC, outC, plane, ow, d2 int) {
	var m [16]float32
	for g := 0; g < groups; g++ {
		vg := v[g*inC*128 : (g+1)*inC*128]
		for o := 0; o < outC; o++ {
			uo := u[o*inC*16 : (o+1)*inC*16]
			for l := 0; l < winoLanes; l++ {
				for xi := range m {
					var s float32
					for c := 0; c < inC; c++ {
						s += float32(uo[c*16+xi] * vg[c*128+xi*8+l])
					}
					m[xi] = s
				}
				var t [4]float64 // the tile's outputs in (dy, dx) order
				for y := 0; y < 2; y++ {
					var z [4]float32
					for j := range z {
						if y == 0 {
							z[j] = (m[j] + m[4+j]) + m[8+j]
						} else {
							z[j] = (m[4+j] - m[8+j]) - m[12+j]
						}
					}
					t[2*y], t[2*y+1] = float64((z[0]+z[1])+z[2]), float64((z[1]-z[2])-z[3])
				}
				if bias != nil {
					for i := range t {
						t[i] += bias[o]
					}
				}
				if taps == nil {
					cell := out[winoOrigin(tab, g, l, d2)+o*plane:]
					cell[0], cell[1], cell[ow], cell[ow+1] = t[0], t[1], t[2], t[3]
					continue
				}
				best, tap := 0.0, int32(-1)
				for i, x := range t {
					if x > best {
						best, tap = x, int32(i)
					}
				}
				k := tab[2*g+l/4] + l%4/2*d2 + l%2 + o*plane
				out[k], taps[k] = best, tap
			}
		}
	}
}

// winoGradDyGo writes the transformed output-gradient tiles Ã dy Ãᵀ into
// s[ξ][g][o][lane] and the bias-gradient lanes into db[o][lane]:
//
//	h[y] = (dy[y][0], dy[y][0] + dy[y][1], dy[y][0] − dy[y][1], dy[y][1])
//	T[·][j] = (h[0][j], h[0][j] + h[1][j], h[0][j] − h[1][j], h[1][j])
//	db[o][lane] += T[1][1]   groups ascending
//
// (T[1][1] is the tile's sum.) A duplicated last high half reads +0. The
// adds are nanAdd, so NaN payloads are winoDyAVX's.
func winoGradDyGo(s, db, dy []float32, tab []int, groups, outC, plane, pw, d2 int, dup bool) {
	for g := 0; g < groups; g++ {
		for o := 0; o < outC; o++ {
			for l := 0; l < winoLanes; l++ {
				var t [2][2]float32
				if !(dup && g == groups-1 && l >= 4) {
					cell := dy[winoOrigin(tab, g, l, d2)+o*plane:]
					t = [2][2]float32{{cell[0], cell[1]}, {cell[pw], cell[pw+1]}}
				}
				var h [2][4]float32
				for y := range h {
					h[y] = [4]float32{t[y][0], nanAdd(t[y][0], t[y][1]), t[y][0] - t[y][1], t[y][1]}
				}
				for j := 0; j < 4; j++ {
					for i, x := range [4]float32{h[0][j], nanAdd(h[0][j], h[1][j]), h[0][j] - h[1][j], h[1][j]} {
						s[(((4*i+j)*groups+g)*outC+o)*8+l] = x
					}
				}
				db[o*8+l] = nanAdd(db[o*8+l], nanAdd(h[0][1], h[1][1]))
			}
		}
	}
}

// winoGradMulGo runs mw[ξ][c][o], the weight gradient in the
// transformed domain, over a run of groups: per lane the sum over the
// groups ascending of v[g][c][ξ] · s[ξ][g][o], from +0 in the first run
// and carried in acc[ξ][c][o] from run to run; after the last run the
// eight lanes collapse, ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)),
// VHADDPS's order. A lane the chain leaves NaN is run again
// (winoGradMulNaN), and the collapse is nanAdd, so NaN payloads are
// winoMulAVX's.
func winoGradMulGo(mw, acc, v, s []float32, groups, inC, outC int, first, last bool) {
	for xi := 0; xi < 16; xi++ {
		for c := 0; c < inC; c++ {
			for o := 0; o < outC; o++ {
				i := ((xi*inC+c)*outC + o) * winoLanes
				var a [winoLanes]float32
				if !first {
					a = [winoLanes]float32(acc[i:])
				}
				for g := 0; g < groups; g++ {
					vv := v[(g*inC+c)*128+xi*8 : (g*inC+c)*128+xi*8+8]
					ss := s[((xi*groups+g)*outC+o)*8 : ((xi*groups+g)*outC+o)*8+8]
					for l := range a {
						a[l] += float32(vv[l] * ss[l])
					}
				}
				if a != a { // some lane is NaN (NaN != NaN)
					winoGradMulNaN(&a, acc, i, v[c*128+xi*8:], s[(xi*groups*outC+o)*8:], groups, inC*128, outC*8, first)
				}
				if last {
					mw[(xi*inC+c)*outC+o] = nanAdd(nanAdd(nanAdd(a[0], a[1]), nanAdd(a[2], a[3])), nanAdd(nanAdd(a[4], a[5]), nanAdd(a[6], a[7])))
				} else {
					copy(acc[i:], a[:])
				}
			}
		}
	}
}

// winoGradMulNaN runs each NaN lane of a again, from +0 or acc[i+l],
// over v[g·vStep+l] · s[g·sStep+l] in nanAdd and nanMul: where two NaNs
// meet, the one winoMulAVX keeps.
func winoGradMulNaN(a *[winoLanes]float32, acc []float32, i int, v, s []float32, groups, vStep, sStep int, first bool) {
	for l, x := range a {
		if x == x {
			continue
		}
		x = 0
		if !first {
			x = acc[i+l]
		}
		for g := 0; g < groups; g++ {
			x = nanAdd(x, nanMul(v[g*vStep+l], s[g*sStep+l]))
		}
		a[l] = x
	}
}

// nanAdd is a + b, and nanMul a · b, with the NaN the AVX2 kernels keep:
// where both operands are NaN, a's, quieted (VADDPS, VMULPS and VHADDPS
// keep their first source's). A compiled a + b need not: the compiler may
// commute the operands, so a twin that must match a kernel's NaN payloads
// writes the adds where two NaNs can meet through these.
func nanAdd(a, b float32) float32 {
	if a != a {
		return a + a
	}
	return a + b
}

func nanMul(a, b float32) float32 {
	if a != a {
		return a + a
	}
	return a * b
}
