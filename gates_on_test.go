//go:build gates

package fedcross

// timeGates: TestGates times every row and checks its bound.
const timeGates = true
