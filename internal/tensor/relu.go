package tensor

// Rectifier kernels shared by the nn activation layers. They live here,
// next to the other numeric kernels, so the amd64 build can swap in the
// branch-free AVX2 implementations: a random-signed activation stream
// mispredicts the scalar `v > 0` branch about half the time, which makes
// the elementwise pass cost ~20 cycles per element — more than the
// compare itself.

// ReluForward computes out[i] = x[i] if x[i] > 0 else 0 and records
// mask[i] = x[i] > 0 (NaN compares false, so NaN inputs gate to 0 like
// the scalar comparison). All three slices must have equal length.
func ReluForward(out, x []float64, mask []bool) {
	if len(out) != len(x) || len(mask) != len(x) {
		panic("tensor: ReluForward length mismatch")
	}
	reluForward(out, x, mask)
}

// ReluBackward computes dx[i] = g[i] if mask[i] else 0. All three slices
// must have equal length.
func ReluBackward(dx, g []float64, mask []bool) {
	if len(dx) != len(g) || len(mask) != len(g) {
		panic("tensor: ReluBackward length mismatch")
	}
	reluBackward(dx, g, mask)
}

// ReluForwardGo is ReluForward's portable twin, which off amd64, under
// purego and without AVX2 is ReluForward.
func ReluForwardGo(out, x []float64, mask []bool) {
	for i, v := range x {
		if v > 0 {
			out[i] = v
			mask[i] = true
		} else {
			out[i] = 0
			mask[i] = false
		}
	}
}

// ReluBackwardGo is ReluBackward's portable twin.
func ReluBackwardGo(dx, g []float64, mask []bool) {
	for i, v := range g {
		if mask[i] {
			dx[i] = v
		} else {
			dx[i] = 0
		}
	}
}
