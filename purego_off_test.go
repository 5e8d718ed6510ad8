//go:build !purego

package fedcross

// purego reports that the portable kernels replace the assembly.
const purego = false
