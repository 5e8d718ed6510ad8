package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
)

// twinRows is the twin table, one row per dispatched entry point (the
// driver is in twin_test.go). A call that chains kernel calls on the same
// operands holds each call of the chain to its twin's, so each call
// writes an operand of its own or feeds the next.
var twinRows = []twinRow{
	{name: "Axpy", avx: []string{"axpyAVX"}, gate: "fold/reduce-k10", short: "tensor: Axpy ",
		sweepIn: "TestAxpyMatchesTwin", checksIn: "TestFoldKernelsRejectLengthMismatch",
		sweep: twinVectors(floats(2), func(side int, o twinOps) {
			for _, a := range []float64{0.37, 0, -2.5, 1} {
				pick(side, Axpy, axpyGo)(o.f(0), o.f(1), a)
			}
		})},
	// a = 1 adds x exactly, so a plain sum may take the kernel.
	{name: "AxpyUnit", gate: "none: the Axpy row's kernel", sides: []string{"plain sum"}, short: "tensor: Axpy ",
		sweep: twinVectors(floats(2), func(side int, o twinOps) {
			pick(side, func(dst, x []float64) { Axpy(dst, x, 1) }, func(dst, x []float64) {
				for i := range dst {
					dst[i] += x[i]
				}
			})(o.f(0), o.f(1))
		})},
	{name: "Axpy4", avx: []string{"axpy4AVX"}, gate: "fold/axpy4", sides: []string{"twin", "four Axpy calls"},
		short: "tensor: Axpy4 ", checksIn: "TestFoldKernelsRejectLengthMismatch",
		sweep: twinVectors(floats(5), func(side int, o twinOps) {
			pick(side, Axpy4, axpy4Go, func(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
				Axpy(dst, x0, a0)
				Axpy(dst, x1, a1)
				Axpy(dst, x2, a2)
				Axpy(dst, x3, a3)
			})(o.f(0), o.f(1), o.f(2), o.f(3), o.f(4), 0.25, 1, -0.5, 0)
		})},
	// Out of place, then in place over v and over w: FedCross's propeller
	// path lerps in place.
	{name: "Lerp", avx: []string{"lerpAVX"}, gate: "fold/lerp", short: "tensor: Lerp ", checksIn: "TestFoldKernelsRejectLengthMismatch",
		sweep: twinVectors(floats(6), func(side int, o twinOps) {
			for i, a := range []float64{0.99, 0.5, 1, 0} {
				lerp, v, w := pick(side, Lerp, lerpGo), o.f(4), o.f(5)
				lerp(o.f(i), v, w, a, 1-a)
				lerp(v, v, w, a, 1-a)
				lerp(w, v, w, a, 1-a)
			}
		})},
	// Each class at every position of the vector as filled.
	{name: "AllFinite", avx: []string{"allFiniteAVX"}, gate: "fold/finite", sides: []string{"twin", "IsNaN/IsInf scan"},
		free: []int{0, 1},
		sweep: twinVectors(func(n int) []any { return []any{f64(n), f64(1 + n*len(twinSpecials))} }, func(side int, o twinOps) {
			finite := pick(side, AllFinite, allFiniteGo, func(v []float64) bool {
				for _, x := range v {
					if math.IsNaN(x) || math.IsInf(x, 0) {
						return false
					}
				}
				return true
			})
			v, verdicts := o.f(0), o.f(1)
			verdicts[0] = b2f(finite(v))
			for i, old := range v {
				for j, class := range twinSpecials {
					v[i] = class
					verdicts[1+i*len(twinSpecials)+j] = b2f(finite(v))
				}
				v[i] = old
			}
		})},
	// Two steps, so the second reads a velocity the first wrote.
	{name: "MomentumStep", avx: []string{"momentumAVX"}, gate: "momentum/p6506", short: "tensor: MomentumStep ",
		sweep: twinVectors(floats(3), func(side int, o twinOps) {
			for _, m := range []float64{0, 0.9} {
				pick(side, MomentumStep, MomentumStepGo)(o.f(0), o.f(1), o.f(2), 0.05, m)
			}
		})},
	// −0 and NaN gate to +0 and false.
	{name: "ReluForward", avx: []string{"reluFwdAVX"}, gate: "relu/forward", short: "tensor: ReluForward ",
		sweep: twinVectors(func(n int) []any { return []any{f64(n), f64(n), make([]bool, n)} }, func(side int, o twinOps) {
			pick(side, ReluForward, ReluForwardGo)(o.f(0), o.f(1), o.mask(2))
		})},
	{name: "ReluBackward", avx: []string{"reluBwdAVX"}, gate: "relu/backward", short: "tensor: ReluBackward ",
		sweep: twinVectors(func(n int) []any { return []any{f64(n), f64(n), make([]bool, n)} }, func(side int, o twinOps) {
			pick(side, ReluBackward, ReluBackwardGo)(o.f(0), o.f(1), o.mask(2))
		})},

	// Rows of a multiple of four windows take the kernel, other shapes
	// the twin; ties and a row pair nothing positive enters.
	{name: "MaxPool2x2", avx: []string{"maxPool2AVX"}, sides: []string{"twin", "window loop"}, short: "tensor: MaxPool2x2 ", checksIn: "TestGlueKernelsRejectShortSlices",
		gate: "pool",
		reach: func() bool { // ResNetMini's 8×8 planes
			return maxPool2x2Plane(f64(16), make([]int, 16), f64(64), 4, 4)
		},
		refuse: []twinRefusal{
			{"tensor: MaxPool2x2 ", func() { MaxPool2x2(nil, nil, nil, 1, -4, 1) }},
			{"tensor: MaxPool2x2 ", func() { MaxPool2x2Go(f64(8), make([]int, 8), f64(31), 2, 4, 1) }},
		},
		sweep: func(yield func(twinCase)) {
			for _, ow := range []int{0, 1, 2, 3, 5, 6, 4, 8} {
				for _, s := range [][2]int{{1, 3}, {2, 2}, {3, 1}} {
					oh, planes := s[0], s[1]
					w := 2 * ow
					yield(twinCase{what: fmt.Sprintf("oh=%d ow=%d planes=%d", oh, ow, planes),
						ops: []any{f64(planes * oh * ow), make([]int, planes*oh*ow), f64(planes * 2 * oh * w)},
						prep: func(rng *RNG, o twinOps) {
							src := o.f(2)
							for i := range src {
								if i < 2*w {
									src[i] = -math.Abs(src[i])
								} else if i >= 7 && rng.Intn(10) == 0 {
									src[i] = src[i-7]
								}
							}
						},
						run: func(side int, o twinOps) {
							pick(side, MaxPool2x2, MaxPool2x2Go, scalarPool2x2)(o.f(0), o.ints(1), o.f(2), oh, ow, planes)
						}})
				}
			}
		}},
	// Argmax −1 windows and any winning tap; a −0 gradient lands as +0.
	// The twin is the loop the kernel replaced, dx zeroed and each
	// winner's gradient added. Widths end on 8, which the kernel takes.
	{name: "Unpool2x2", avx: []string{"unpoolAVX"}, gate: "glue/unpool", short: "tensor: Unpool2x2 ", checksIn: "TestGlueKernelsRejectShortSlices",
		refuse: []twinRefusal{{"tensor: Unpool2x2 ", func() { Unpool2x2(nil, nil, nil, 4, -1, 1) }}},
		sweep: func(yield func(twinCase)) {
			for _, ow := range []int{1, 2, 3, 5, 6, 7, 9, 4, 8} {
				for pairs := range 6 {
					for batch := range 4 {
						n := batch * pairs * ow
						yield(twinCase{what: fmt.Sprintf("ow=%d pairs=%d batch=%d", ow, pairs, batch),
							ops: []any{f64(4 * n), f64(n), make([]int, n)},
							prep: func(_ *RNG, o twinOps) {
								for i, r := range o.ints(2) {
									tl := 4*ow*(i/ow%pairs) + 2*(i%ow)
									o.ints(2)[i] = [5]int{-1, tl, tl + 1, tl + 2*ow, tl + 2*ow + 1}[r%5]
								}
							},
							run: func(side int, o twinOps) {
								pick(side, Unpool2x2, Unpool2x2Go)(o.f(0), o.f(1), o.ints(2), ow, pairs, batch)
							}})
					}
				}
			}
		}},
	// Widths 0–13 and 16 (multiples of four take the kernel), zero planes
	// and rows; no border element is written. The values are float32's
	// largest, one that rounds past it, and a tie.
	{name: "NarrowPadded", avx: []string{"narrowAVX"}, gate: "glue/narrow", short: "tensor: NarrowPadded ",
		sweepIn: "TestNarrowPaddedMatchesTwin", checksIn: "TestGlueKernelsRejectShortSlices",
		values: []float64{math.MaxFloat32, -math.MaxFloat32 * (1 + 0x1p-25), 1 + 0x1p-24},
		refuse: []twinRefusal{{"tensor: NarrowPadded ", func() { NarrowPadded(f32(16), f64(4), 1, -2, 2) }}},
		sweep: func(yield func(twinCase)) {
			for _, w := range twinLengths(16) {
				for _, ph := range [][2]int{{0, 3}, {2, 0}, {1, 1}, {3, 2}, {5, 4}} {
					planes, h := ph[0], ph[1]
					yield(twinCase{what: fmt.Sprintf("%d planes of %dx%d", planes, h, w),
						ops: []any{f32(planes * (h + 2) * (w + 2)), f64(planes * h * w)},
						run: func(side int, o twinOps) {
							pick(side, NarrowPadded, NarrowPaddedGo)(o.f32(0), o.f(1), planes, h, w)
						}})
				}
			}
		}},

	// The wire: v and ref are operands 0 and 1 over the residual shapes of
	// wireShape, each length without and with a reference.
	{name: "DeltaRange", avx: []string{"deltaRangeAVX"}, gate: "wire/up", sides: []string{"twin", "serial scan"},
		values: wireValues, free: []int{2, 3}, short: "tensor: DeltaRange ",
		sweep: wireSweep(func(side int, o twinOps, ref []float64, lo, scale float64) {
			r := o.f(2)
			r[0], r[1] = pick(side, DeltaRange, DeltaRangeGo, serialRange)(o.f(0), ref)
		})},
	{name: "QuantDelta", avx: []string{"quantDeltaAVX"}, gate: "wire/up", sides: []string{"twin", "math.Round pass"},
		values: wireValues, free: []int{2}, short: "tensor: QuantDelta ",
		sweep: wireSweep(func(side int, o twinOps, ref []float64, lo, scale float64) {
			pick(side, QuantDelta, QuantDeltaGo, roundPass)(o.bytes(3), o.f(0), ref, lo, scale)
		})},
	// Every byte, on grids of every scale and a zero one, each call into
	// an operand of its own.
	{name: "DequantAdd", avx: []string{"dequantAddAVX"}, gate: "wire/down", sides: []string{"twin", "decode, then add"}, short: "tensor: DequantAdd ",
		sweep: twinVectors(func(n int) []any { return append(floats(9)(n), make([]byte, n)) }, func(side int, o twinOps) {
			for i, g := range [][2]float64{{-1, 2.0 / 255}, {0.25, 0}, {-math.MaxFloat64 / 4, math.MaxFloat64 / 2 / 255}, {-3e-310, 1e-312}} {
				pick(side, DequantAdd, DequantAddGo, decodeThenAdd)(o.f(2*i), o.bytes(9), nil, g[0], g[1])
				pick(side, DequantAdd, DequantAddGo, decodeThenAdd)(o.f(2*i+1), o.bytes(9), o.f(8), g[0], g[1])
			}
		})},

	// Spans a multiple of four long from offsets 0, 1 and 4 to the
	// vectors' end or short of it, accumulators carried in, and a column
	// that is a row (a diagonal cell).
	{name: "DotTile", avx: []string{"dotTileAVX"}, gate: "gram", sides: []string{"twin", "four streams"},
		rate: 64, nanEqual: true, free: []int{6}, short: "tensor: DotTile ",
		sweepIn: "TestDotTileMatchesScalarStreams", checksIn: "TestDotTileRejectsUncheckedSpans",
		pin: "bc5bc81059075332c86e9285bd10a143ae982f9e4fd490799d7856fee5f26f01",
		refuse: []twinRefusal{
			{"divisible by 4", func() { DotTile(new(DotTileAcc), &[2][]float64{}, &[4][]float64{}, 0, 6) }},
			{"must be non-negative", func() { DotTile(new(DotTileAcc), &[2][]float64{}, &[4][]float64{}, -4, 0) }},
		},
		sweep: func(yield func(twinCase)) {
			for _, l := range twinLengths(16, 33, 64) {
				for _, c0 := range []int{0, 1, 4} {
					for _, alias := range []bool{true, false} {
						if c0 > l {
							continue
						}
						n := (l - c0) &^ 3
						yield(twinCase{what: fmt.Sprintf("vectors of %d, span [%d, %d+%d), alias=%v", l, c0, c0, n, alias),
							ops: append(floats(6)(l), f64(len(DotTileAcc{}))),
							run: func(side int, o twinOps) {
								a, b := [2][]float64{o.f(0), o.f(1)}, [4][]float64{o.f(2), o.f(3), o.f(4), o.f(5)}
								if alias {
									b[1] = a[0]
								}
								pick(side, DotTile, DotTileGo, dotStreams)((*DotTileAcc)(o.f(6)), &a, &b, c0, n)
							}})
					}
				}
			}
		}},

	// Every tile edge of the register-tiled kernels — m = 0…9 (row quads,
	// the rows left over, odd row pairs), n = 0…17, 32, 64 and 256 (whole
	// tiles, masked column groups), k = 0…13, 32, 50 and 64 (whole steps of
	// four, the transposed form's tail) — in all three forms, with and
	// without acc, op(a)'s last row and op(b)'s last column making every
	// product −0, so that element's chain shows its +0 start. The avx2
	// form's one Go index expression is its bounds check, so a short
	// operand's runtime panic is that check (the go form's loops slice).
	{name: "Gemm", avx: []string{"gemmAxpyAVX", "gemmDotAVX"}, gate: "gemm/cnn", rate: 256, nanEqual: true, short: "runtime error: ",
		sweepIn: "TestBackendsBitIdentical/edges", checksIn: "TestGemmRejectsShortOperands",
		pin: "195400af356299f28835368263d58d861d0dd581caefada68a352792af6ee786",
		sweep: func(yield func(twinCase)) {
			for m := range 10 {
				for _, n := range twinLengths(14, 15, 16, 17, 32, 64, 256) {
					for _, k := range twinLengths(32, 50, 64) {
						for _, form := range [][2]bool{{false, false}, {true, false}, {false, true}} {
							for _, acc := range []bool{false, true} {
								yield(twinCase{what: fmt.Sprintf("m=%d k=%d n=%d trans=%v acc=%v", m, k, n, form, acc),
									ops: []any{f64(m * n), f64(m * k), f64(k * n)},
									prep: func(_ *RNG, o twinOps) {
										for p := 0; p < k && m*n > 0; p++ {
											ai, bi := (m-1)*k+p, p*n+n-1
											if form[0] {
												ai = p*m + m - 1
											}
											if form[1] {
												bi = (n-1)*k + p
											}
											o.f(1)[ai], o.f(2)[bi] = -1e-200, 1e-200
										}
									},
									run: func(side int, o twinOps) {
										pick[Backend](side, defaultBackend, GoBackend{}).Gemm(o.f(0), o.f(1), o.f(2), m, k, n, form[0], form[1], acc)
									}})
							}
						}
					}
				}
			}
		}},

	// The plans over the planes the layout takes — rows a multiple of eight
	// wide (second tile pair to the right) and of four (second pair below),
	// one and several quads a sample — output channels in whole eight-channel
	// blocks and with a last block moved back (under a block both sides run
	// the twins), and batches 1–3 (an odd quad count repeats the last quad in
	// a group's high half): forward, then the parameter gradients, which
	// read the tiles the forward pass left, then the input gradient.
	{name: "Winograd", avx: []string{"winoInAVX", "winoOutAVX", "winoDyAVX", "winoMulAVX"}, gate: "conv",
		rate: 64, nanEqual: true, short: "tensor: Winograd ",
		sweepIn: "TestConvKernelsMatchTwins", checksIn: "TestWinogradRejectsUncheckedOperands",
		pin: "18243451a558975ef400c47a2a38b03e62b231fc83982bd67de8493e04194fa8",
		reach: func() bool {
			return NewWinograd(ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 8).Vector() &&
				NewWinograd(ConvGeom{InC: 8, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, 16).Vector()
		},
		refuse: []twinRefusal{{"the last Forward ran 2", func() {
			p := NewWinograd(ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, 8)
			p.SetWeights(f64(8 * 2 * 9))
			p.Forward(f64(2*8*16), f32(2*2*36), f64(8), 2)
			p.GradParams(f64(8*2*9), f64(8), f32(8*36), 1)
		}}},
		sweep: func(yield func(twinCase)) {
			for _, pl := range [][2]int{{8, 8}, {4, 4}, {2, 8}, {8, 4}, {4, 12}, {6, 16}} {
				for _, inC := range []int{1, 2, 3, 5, 8, 9, 13, 17} {
					for _, outC := range []int{8, 9, 13, 16, 17} {
						g := ConvGeom{InC: inC, InH: pl[0], InW: pl[1], KH: 3, KW: 3, Stride: 1, Pad: 1}
						padded, plane := (g.InH+2)*(g.InW+2), g.InH*g.InW
						for _, batch := range []int{1, 2, 3} {
							yield(twinCase{what: fmt.Sprintf("%+v outC=%d batch=%d", g, outC, batch),
								ops: []any{f32(batch * inC * padded), f32(batch * outC * padded), f64(outC * inC * 9), f64(outC),
									f64(batch * outC * plane), f64(outC * inC * 9), f64(outC), f64(batch * inC * plane)},
								prep: func(_ *RNG, o twinOps) {
									// W, dW and dB carry no NaN, as when the pin was taken with
									// the filter transform and the gradients' float64 adds in Go
									// (rows WinogradFilter and WinogradGrads hold their kernels
									// to the twins, NaN payloads included).
									for _, i := range []int{2, 5, 6} {
										for j, x := range o.f(i) {
											if x != x {
												o.f(i)[j] = math.Inf(1)
											}
										}
									}
								},
								run: func(side int, o twinOps) {
									p := NewWinograd(g, outC)
									p.SetWeights(o.f(2))
									pick(side, p.Forward, p.ForwardGo)(o.f(4), o.f32(0), o.f(3), batch)
									pick(side, p.GradParams, p.GradParamsGo)(o.f(5), o.f(6), o.f32(1), batch)
									pick(side, p.GradInput, p.GradInputGo)(o.f(7), o.f32(1), batch)
								}})
						}
					}
				}
			}
		}},

	// ForwardPool, the output transform's pooled epilogue (winoOutAVX
	// with tap codes), over the CNN's and VGGMini's pooled planes — 8×8,
	// second tile pair to the right, and 4×4, below, one quad a sample, so
	// odd batches repeat it in a group's high half — and 2×8, 4×12 and
	// 6×16 planes, a last channel block moved back, channels under eight
	// (both sides on the twins), batches 1–3 and 50. The third side is
	// Forward, then MaxPool2x2Go from +0 per sample, its argmax turned
	// into tap codes. Every third output channel's filters are zero, so
	// its four taps tie at its bias.
	{name: "WinogradPool", gate: "conv-pool", sides: []string{"twin", "Forward, then MaxPool2x2Go"}, short: "tensor: Winograd ",
		reach: func() bool {
			for _, s := range [][4]int{{3, 8, 8, 8}, {8, 4, 4, 16}, {16, 8, 8, 16}, {32, 4, 4, 32}} {
				if !NewWinograd(ConvGeom{InC: s[0], InH: s[1], InW: s[2], KH: 3, KW: 3, Stride: 1, Pad: 1}, s[3]).Vector() {
					return false
				}
			}
			return true
		},
		sweep: func(yield func(twinCase)) {
			for _, s := range [][4]int{{1, 2, 8, 9}, {5, 4, 12, 13}, {2, 6, 16, 8}, {3, 4, 4, 4}, {16, 8, 8, 16}, {32, 4, 4, 32}, {8, 4, 4, 16}, {3, 8, 8, 8}} {
				g := ConvGeom{InC: s[0], InH: s[1], InW: s[2], KH: 3, KW: 3, Stride: 1, Pad: 1}
				outC, pooled := s[3], s[1]*s[2]/4
				for _, batch := range []int{1, 2, 3, 50} {
					yield(twinCase{what: fmt.Sprintf("%+v outC=%d batch=%d", g, outC, batch),
						ops: []any{f32(batch * g.InC * (g.InH + 2) * (g.InW + 2)), f64(outC * g.InC * 9), f64(outC), f64(batch * outC * pooled), make([]int32, batch*outC*pooled)},
						prep: func(_ *RNG, o twinOps) {
							for oc := 1; oc < outC; oc += 3 {
								clear(o.f(1)[oc*g.InC*9 : (oc+1)*g.InC*9])
							}
						},
						run: func(side int, o twinOps) {
							p := NewWinograd(g, outC)
							p.SetWeights(o.f(1))
							pick(side, p.ForwardPool, p.ForwardPoolGo, func(out []float64, taps []int32, in []float32, bias []float64, batch int) {
								y, am := f64(batch*outC*4*pooled), make([]int, batch*outC*pooled)
								p.Forward(y, in, bias, batch)
								for b := range batch {
									n := outC * pooled
									MaxPool2x2Go(out[b*n:(b+1)*n], am[b*n:(b+1)*n], y[4*b*n:4*(b+1)*n], g.InH/2, g.InW/2, outC)
								}
								for i, idx := range am {
									taps[i] = -1
									if idx >= 0 {
										taps[i] = int32(2*(idx/g.InW%2) + idx%2)
									}
								}
							})(o.f(3), o.i32(4), o.f32(0), o.f(2), batch)
						}})
				}
			}
		}},
	// SetWeights, the filter transform and its flip in one pass: pairs
	// that fill no eight-pair block (both sides on the twin), one, several
	// and a ragged last one on the twin. u and ut are copied out; W is the
	// operand a short check applies to. Every add takes the operand order
	// of the compiled twin, so NaN payloads agree too.
	{name: "WinogradFilter", avx: []string{"winoFilterAVX"}, gate: "wino/filter", short: "tensor: Winograd weights ",
		free: []int{1, 2},
		reach: func() bool {
			return NewWinograd(ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 8).Vector() &&
				NewWinograd(ConvGeom{InC: 8, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, 16).Vector()
		},
		sweep: func(yield func(twinCase)) {
			for _, s := range [][2]int{{1, 1}, {2, 7}, {1, 8}, {3, 9}, {5, 13}, {9, 16}, {2, 17}, {3, 8}, {8, 16}} {
				inC, outC := s[0], s[1]
				yield(twinCase{what: fmt.Sprintf("inC=%d outC=%d", inC, outC), ops: []any{f64(outC * inC * 9), f32(outC * inC * 16), f32(outC * inC * 16)},
					run: func(side int, o twinOps) {
						p := NewWinograd(ConvGeom{InC: inC, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, outC)
						pick(side, p.SetWeights, p.SetWeightsGo)(o.f(0))
						copy(o.f32(1), p.u)
						copy(o.f32(2), p.ut)
					}})
			}
		}},

	// GradParams against its twin at batches whose groups make one run
	// (the lanes start and collapse in registers), two (first and last)
	// and many (middle runs carry through acc), over the CNN's two
	// convolutions and planes with ragged channel blocks, channels under
	// eight on the twins; the sweep ends on the CNN's second convolution
	// at batch 50. The twin writes its adds where two NaNs can meet in the
	// kernels' operand order, through nanAdd and nanMul, so NaN payloads
	// compare exactly.
	{name: "WinogradGrads", avx: []string{"winoGradsAVX"}, gate: "wino/grads", short: "tensor: Winograd ",
		reach: func() bool {
			return NewWinograd(ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 8).Vector() &&
				NewWinograd(ConvGeom{InC: 8, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, 16).Vector()
		},
		sweep: func(yield func(twinCase)) {
			// Each shape's batches make one run, two and more (gradRun).
			for _, s := range [][7]int{{2, 2, 8, 9, 1, 12, 30}, {5, 4, 12, 13, 1, 20, 40}, {1, 4, 4, 17, 1, 8, 20}, {4, 4, 4, 4, 1, 20, 40}, {3, 8, 8, 8, 1, 4, 50}, {8, 4, 4, 16, 1, 90, 50}} {
				g := ConvGeom{InC: s[0], InH: s[1], InW: s[2], KH: 3, KW: 3, Stride: 1, Pad: 1}
				outC, padded := s[3], (g.InH+2)*(g.InW+2)
				p := NewWinograd(g, outC)
				for _, batch := range s[4:] {
					yield(twinCase{what: fmt.Sprintf("%+v outC=%d batch=%d runs=%d", g, outC, batch, ((batch*p.qs+1)/2+p.gradRun()-1)/p.gradRun()),
						ops: []any{f32(batch * g.InC * padded), f64(outC * g.InC * 9), f64(outC), f32(batch * outC * padded), f64(outC * g.InC * 9), f64(outC)},
						run: func(side int, o twinOps) {
							p := NewWinograd(g, outC)
							p.SetWeights(o.f(1))
							p.Forward(f64(batch*outC*g.InH*g.InW), o.f32(0), o.f(2), batch)
							pick(side, p.GradParams, p.GradParamsGo)(o.f(4), o.f(5), o.f32(3), batch)
						}})
				}
			}
		}},

	// Rows of a multiple of four windows and 2-window rows in pairs take
	// the kernel, other shapes the twin; codes −1…3 and two that route nothing; a −0 gradient lands as
	// +0 and no border cell is written. The third side is the two passes
	// it replaced, its codes turned into argmax indices. The sweep ends on
	// the CNN's two pooled planes at batch 50.
	{name: "UnpoolPadded", avx: []string{"unpoolPadAVX"}, gate: "glue/unpool-padded", sides: []string{"twin", "Unpool2x2Go, then NarrowPaddedGo"},
		short:  "tensor: UnpoolPadded ",
		reach:  func() bool { return unpoolPadVector(4, 4) && unpoolPadVector(2, 2) },
		refuse: []twinRefusal{{"tensor: UnpoolPadded ", func() { UnpoolPadded(nil, nil, nil, 1, -1, 2) }}},
		sweep: func(yield func(twinCase)) {
			shapes := [][3]int{{50 * 8, 4, 4}, {50 * 16, 2, 2}}
			for _, ow := range []int{1, 2, 3, 4, 5, 6, 8} {
				for _, oh := range []int{0, 1, 2, 3} {
					for _, planes := range []int{0, 1, 3} {
						shapes = append([][3]int{{planes, oh, ow}}, shapes...)
					}
				}
			}
			for _, s := range shapes {
				planes, oh, ow := s[0], s[1], s[2]
				n := planes * oh * ow
				yield(twinCase{what: fmt.Sprintf("%d planes of %dx%d windows", planes, oh, ow),
					ops: []any{f32(planes * (2*oh + 2) * (2*ow + 2)), f64(n), make([]int32, n)},
					prep: func(_ *RNG, o twinOps) {
						for i, r := range o.i32(2) {
							o.i32(2)[i] = [6]int32{-1, 0, 1, 2, 3, 7}[r%6]
						}
					},
					run: func(side int, o twinOps) {
						pick(side, UnpoolPadded, UnpoolPaddedGo, func(dst []float32, g []float64, taps []int32, planes, oh, ow int) {
							dx, am := f64(4*n), make([]int, n)
							for i, k := range taps {
								am[i] = -1
								if k >= 0 && k < 4 {
									am[i] = 4*ow*(i/ow%oh) + 2*(i%ow) + int(k/2)*2*ow + int(k%2)
								}
							}
							Unpool2x2Go(dx, g, am, ow, oh, planes)
							NarrowPaddedGo(dst, dx, planes, 2*oh, 2*ow)
						})(o.f32(0), o.f(1), o.i32(2), planes, oh, ow)
					}})
			}
		}},

	// Zeros, subnormals, overflow, infinities, NaN and exact halves.
	{name: "Float16EncodeSlice", gate: "none: Go only, no assembly", sides: []string{"Float16Bits"}, free: []int{1}, short: "runtime error: slice bounds out of range",
		values: []float64{0.5, 65504, -65504, 65520, 70000, 5.96046448e-08, 6.103515625e-05, 2.5e-8},
		sweep: twinVectors(func(n int) []any { return []any{make([]byte, 2*n), f64(n)} }, func(side int, o twinOps) {
			pick(side, Float16EncodeSlice, func(dst []byte, src []float64) {
				for i, v := range src {
					binary.LittleEndian.PutUint16(dst[2*i:], Float16Bits(v))
				}
			})(o.bytes(0), o.f(1))
		})},

	// Out of place, then in place. Planted lanes put 2v + phase at ±0, at
	// subnormals and within 3 ulps of ±2^29, on both sides of where
	// VisionSin hands over to math.Sin; the special pass adds NaN payloads,
	// ±Inf and overflow.
	{name: "VisionFinish", avx: []string{"finishAVX"}, gate: "vision/finish", short: "tensor: VisionFinish ",
		sweep: func(yield func(twinCase)) {
			for _, n := range twinLengths(15, 16, 17, 192) {
				yield(twinCase{what: fmt.Sprintf("n=%d", n), ops: floats(4)(n),
					prep: func(rng *RNG, o twinOps) {
						v, phase := o.f(1), o.f(2)
						for range n/8 + min(n, 1) {
							i, k := rng.Intn(n), rng.Intn(7)-3
							edge := math.Float64frombits(math.Float64bits(1<<28) + uint64(k))
							v[i], phase[i] = [...]float64{edge, -edge, 0, math.Copysign(0, -1), 5e-324 * float64(k+4)}[rng.Intn(5)], 0
							if v[i] == 0 {
								phase[i] = v[i] // an argument of v's sign of zero
							}
						}
						copy(o.f(3), v)
					},
					run: func(side int, o twinOps) {
						finish := pick(side, VisionFinish, VisionFinishGo)
						finish(o.f(0), o.f(1), o.f(2))
						finish(o.f(3), o.f(3), o.f(2))
					}})
			}
		}},

	// Shapes with lanes (α ≥ 1 and α = 0.5) and without, over lengths that
	// run the ring past its taps' wrap, each into an operand of its own;
	// the generator's next word agrees too.
	{name: "DirichletInto", avx: []string{"gammaLanesAVX", "divAVX"}, gate: "dirichlet/scalar/ring", free: []int{0, 1, 2, 3, 4},
		sweep: func(yield func(twinCase)) {
			for _, n := range twinLengths(16, 17, 100, 1000)[1:] {
				yield(twinCase{what: fmt.Sprintf("n=%d", n), ops: append(floats(4)(n), f64(4)),
					run: func(side int, o twinOps) {
						for i, alpha := range []float64{0.5, 1, 2.5, 0.3} {
							g := NewRNG(int64(n + i))
							pick(side, g.DirichletInto, g.DirichletIntoGo)(o.f(i), alpha)
							o.f(4)[i] = float64(g.Int63())
						}
					}})
			}
		}},
}

// scalarPool2x2 is the 2×2/2 max pool from +0 with argmax written out
// window by window, taps in (dy, dx) order.
func scalarPool2x2(dst []float64, am []int, src []float64, oh, ow, planes int) {
	w := 2 * ow
	for o := range planes * oh * ow {
		dst[o], am[o] = 0, -1
		for _, idx := range []int{0, 1, w, w + 1} {
			if idx += 2*(o/ow)*w + 2*(o%ow); src[idx] > dst[o] {
				dst[o], am[o] = src[idx], idx
			}
		}
	}
}

// dotStreams is the tile written out: lane l of cell (r, c) is the
// running sum of a[r][p]·b[c][p] over the span's p ≡ c0 + l mod 4.
func dotStreams(acc *DotTileAcc, a *[DotTileRows][]float64, b *[DotTileCols][]float64, c0, n int) {
	for r := range a {
		for c := range b {
			for p := c0; p < c0+n; p++ {
				acc.Cell(r, c)[(p-c0)%4] += float64(a[r][p] * b[c][p])
			}
		}
	}
}

// wireValues are the values the int8 grid rounds at its edges, among them
// the x just below 0.5 whose x+0.5 rounds up.
var wireValues = []float64{0.49999999999999994, 0.5, 254.5, 255, 1e300}

// wireSweep runs a wire row's call with v and ref (operands 0 and 1), a
// range (2) and a payload (3), on the grid QuantDelta would put v − ref
// on, over each residual shape of wireShape.
func wireSweep(call func(side int, o twinOps, ref []float64, lo, scale float64)) func(func(twinCase)) {
	return func(yield func(twinCase)) {
		for _, n := range twinLengths(15, 16, 17, 31, 32, 33, 64, 67) {
			for shape := range 6 {
				for _, withRef := range []bool{false, true} {
					ref := func(o twinOps) []float64 {
						if withRef {
							return o.f(1)
						}
						return nil
					}
					var lo, scale float64
					yield(twinCase{what: fmt.Sprintf("n=%d shape=%d ref=%v", n, shape, withRef),
						ops: []any{f64(n), f64(n), f64(2), make([]byte, n)},
						prep: func(rng *RNG, o twinOps) {
							wireShape(rng, shape, o.f(0), o.f(1))
							lo, scale = wireGrid(o.f(0), ref(o))
						},
						run: func(side int, o twinOps) { call(side, o, ref(o), lo, scale) }})
				}
			}
		}
	}
}

// wireShape gives v and ref one of the wire's residual shapes: 0 the fill
// as it is; 1 a model delta, small around the reference; 2 non-negative
// with exact zeros of both signs and 3 non-positive with zeros formed by
// cancellation, which take the range's zero-sign rescan; 4 all equal (a
// zero scale); 5 the grid [0, 255] at scale 1, on and beside each k/2,
// half of them where the rounding masks change.
func wireShape(rng *RNG, shape int, v, ref []float64) {
	for i := range v {
		switch shape {
		case 1:
			v[i] = ref[i] + 0.01*rng.Normal(0, 1)
		case 2:
			v[i], ref[i] = [4]float64{math.Copysign(0, -1), 0, rng.Float64(), rng.Float64()}[rng.Intn(4)], 0
		case 3:
			if v[i] = ref[i]; rng.Intn(2) == 0 {
				v[i] -= math.Abs(ref[i])
			}
		case 4:
			v[i], ref[i] = 1.25, 0.25
		case 5:
			k := [9]int{rng.Intn(511), 0, 1, 2, 3, 507, 508, 509, 510}[rng.Intn(2)*(1+rng.Intn(8))]
			v[i], ref[i] = math.Nextafter(float64(k)/2, float64(k)/2+float64(rng.Intn(3)-1)), 0
		}
	}
	if shape == 5 && len(v) > 1 {
		v[0], v[1] = 0, 255
	}
}

// wireGrid is the int8 codec's grid for v − ref: the finite range over
// 255 steps, a unit range when nothing is finite, and the widest grid
// that does not overflow when the range does.
func wireGrid(v, ref []float64) (lo, scale float64) {
	lo, hi := DeltaRangeGo(v, ref)
	if lo > hi {
		lo, hi = -1, 1
	}
	if scale = (hi - lo) / 255; math.IsInf(scale, 0) {
		lo, scale = -math.MaxFloat64/4, math.MaxFloat64/2/255
	}
	return lo, scale
}

// serialRange is the residual stored, then an ascending strict min/max
// over its finite entries (the first of two zeros stays).
func serialRange(v, ref []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i, d := range v {
		if ref != nil {
			d -= ref[i]
		}
		if math.IsInf(d, 0) || math.IsNaN(d) {
			continue
		}
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	return lo, hi
}

// roundPass is math.Round onto the grid, clamped to [0, 255].
func roundPass(dst []byte, v, ref []float64, lo, scale float64) {
	for i, d := range v {
		if ref != nil {
			d -= ref[i]
		}
		r := 0.0
		if scale > 0 {
			r = math.Round((d - lo) / scale)
		}
		if !(r >= 0) {
			r = 0
		}
		dst[i] = byte(min(r, 255))
	}
}

// decodeThenAdd decodes the grid points, then adds the reference in a
// pass of its own.
func decodeThenAdd(dst []float64, q []byte, ref []float64, lo, scale float64) {
	for i, b := range q {
		dst[i] = lo + float64(scale*float64(b))
	}
	for i := range ref {
		dst[i] += ref[i]
	}
}

// MomentumStepGo is MomentumStep on the portable scalar kernel.
func MomentumStepGo(p, v, g []float64, lr, m float64) {
	checkMomentum(len(p), len(v), len(g))
	momentumStepGo(p, v, g, lr, m)
}
