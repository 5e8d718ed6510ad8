//go:build amd64.v3 && !purego

package tensor

// At GOAMD64=v3 and above the compiler may contract x·y + z into one
// fused multiply-add, in VisionSin and math.Sin alike, where the finish
// kernel rounds the product first: the finish runs on its twin.
func init() { finishVector = false }
