package tensor

import "fmt"

// Optimizer kernel: nn.SGD's momentum step without weight decay,
// platform-dispatched like the wire kernels and not a Backend method. Each
// element is v = m·v + g, then p = p − lr·v: a multiply and an add, a
// multiply and a subtract, one rounding each and no fused multiply-add, so
// the AVX2 lanes (which take m·v and p as the first sources, the operands
// Go's scalar code keeps in the destination register) reproduce the scalar
// loop bit for bit, NaN payloads included. momentumStepGo is what runs
// without AVX2, off amd64 and under purego, and what the tests hold the
// assembly to. The assembly takes whole blocks of sgdLanes elements; the
// wrapper finishes the remainder on the twin.

// sgdLanes is the assembly's block: two ymm registers of float64.
const sgdLanes = 8

// MomentumStep applies one heavy-ball step in place: for every i,
// v[i] = m·v[i] + g[i], then p[i] −= lr·v[i]. The three slices must have
// the same length and must not overlap.
func MomentumStep(p, v, g []float64, lr, m float64) {
	checkMomentum(len(p), len(v), len(g))
	momentumStep(p, v, g, lr, m)
}

// checkMomentum is the only length check the kernel gets.
func checkMomentum(p, v, g int) {
	if v != p || g != p {
		panic(fmt.Sprintf("tensor: MomentumStep lengths differ: %d params, %d velocity, %d grads", p, v, g))
	}
}

// momentumStepGo keeps each product a rounded float64 with an explicit
// conversion, so a build that may fuse (GOAMD64=v3) cannot contract it
// into the add or the subtract.
func momentumStepGo(p, v, g []float64, lr, m float64) {
	v, g = v[:len(p)], g[:len(p)]
	for i := range p {
		vi := float64(m*v[i]) + g[i]
		v[i] = vi
		p[i] -= float64(lr * vi)
	}
}
