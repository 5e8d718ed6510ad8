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

// Im2Col lowers a single CHW image to a matrix of shape
// (InC*KH*KW) × (OutH*OutW), so convolution becomes one MatMul.
// img must have InC*InH*InW elements (any shape).
func Im2Col(img *Tensor, g ConvGeom) *Tensor {
	oh, ow := g.OutH(), g.OutW()
	return Im2ColTo(Zeros(g.InC*g.KH*g.KW, oh*ow), img, g)
}

// Im2ColTo is Im2Col writing into a caller-owned workspace of shape
// (InC*KH*KW) × (OutH*OutW). dst must not alias img. Padding gaps are
// cleared, so a reused workspace needs no prior Zero.
func Im2ColTo(dst, img *Tensor, g ConvGeom) *Tensor {
	if img.Len() != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col input has %d elements, geometry wants %d", img.Len(), g.InC*g.InH*g.InW))
	}
	oh, ow := g.OutH(), g.OutW()
	rows := g.InC * g.KH * g.KW
	cols := oh * ow
	if dst.Rank() != 2 || dst.Shape[0] != rows || dst.Shape[1] != cols {
		panic(fmt.Sprintf("tensor: Im2ColTo destination shape %v, want [%d %d]", dst.Shape, rows, cols))
	}
	out := dst
	if g.Pad > 0 {
		// Out-of-image taps are never written below; clear stale contents.
		out.Zero()
	}
	src := img.Data
	for c := 0; c < g.InC; c++ {
		chanOff := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := (c*g.KH+kh)*g.KW + kw
				dst := out.Data[row*cols : (row+1)*cols]
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.Stride + kh - g.Pad
					if iy < 0 || iy >= g.InH {
						continue
					}
					rowOff := chanOff + iy*g.InW
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.Stride + kw - g.Pad
						if ix < 0 || ix >= g.InW {
							continue
						}
						dst[oy*ow+ox] = src[rowOff+ix]
					}
				}
			}
		}
	}
	return out
}

// Col2Im is the adjoint of Im2Col: it scatters a (InC*KH*KW)×(OutH*OutW)
// gradient matrix back into a CHW image gradient, summing overlaps.
func Col2Im(cols *Tensor, g ConvGeom) *Tensor {
	return Col2ImTo(Zeros(g.InC, g.InH, g.InW), cols, g)
}

// Col2ImTo is Col2Im scattering into a caller-owned image-gradient buffer
// with InC*InH*InW elements (any shape). The buffer is zeroed first, so it
// may hold stale contents. dst must not alias cols.
func Col2ImTo(dstT, cols *Tensor, g ConvGeom) *Tensor {
	oh, ow := g.OutH(), g.OutW()
	rows := g.InC * g.KH * g.KW
	if cols.Rank() != 2 || cols.Shape[0] != rows || cols.Shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Col2Im input shape %v, want [%d %d]", cols.Shape, rows, oh*ow))
	}
	if dstT.Len() != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2ImTo destination has %d elements, geometry wants %d", dstT.Len(), g.InC*g.InH*g.InW))
	}
	out := dstT
	out.Zero()
	dst := out.Data
	nc := oh * ow
	for c := 0; c < g.InC; c++ {
		chanOff := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := (c*g.KH+kh)*g.KW + kw
				src := cols.Data[row*nc : (row+1)*nc]
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.Stride + kh - g.Pad
					if iy < 0 || iy >= g.InH {
						continue
					}
					rowOff := chanOff + iy*g.InW
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.Stride + kw - g.Pad
						if ix < 0 || ix >= g.InW {
							continue
						}
						dst[rowOff+ix] += src[oy*ow+ox]
					}
				}
			}
		}
	}
	return out
}
