package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution over CHW images.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	KH, KW        int // kernel height, width
	Stride        int
	Pad           int
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// Validate reports an error if the geometry is degenerate.
func (g ConvGeom) Validate() error {
	switch {
	case g.InC <= 0 || g.InH <= 0 || g.InW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive input dims: %+v", g)
	case g.KH <= 0 || g.KW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive kernel dims: %+v", g)
	case g.Stride <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive stride: %+v", g)
	case g.Pad < 0:
		return fmt.Errorf("tensor: conv geometry has negative padding: %+v", g)
	case g.KH > g.InH+2*g.Pad || g.KW > g.InW+2*g.Pad:
		// OutH/OutW's truncating division would round -1/2 up to a
		// one-position output for a kernel that does not fit.
		return fmt.Errorf("tensor: conv kernel larger than the padded input: %+v", g)
	case g.OutH() <= 0 || g.OutW() <= 0:
		return fmt.Errorf("tensor: conv geometry yields empty output: %+v", g)
	}
	return nil
}
