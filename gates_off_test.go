//go:build !gates

package fedcross

// timeGates: TestGates builds every row and runs each side once, untimed.
const timeGates = false
