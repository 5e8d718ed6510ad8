// Package lowering is the direct convolution the Winograd kernels are
// held to: im2col and its adjoint over float64 CHW images, from which the
// tests and gate rows build a reference convolution on tensor's GEMM. No
// product path imports it.
package lowering

import (
	"fmt"

	"fedcross/internal/tensor"
)

// Im2ColTo lowers a single CHW image (img: InC*InH*InW elements, any
// shape) into a caller-owned workspace of shape (InC*KH*KW) × (OutH*OutW),
// so convolution becomes one MatMul: the direct lowering the Winograd
// kernels are held to. dst must not alias img. Padding gaps are cleared,
// so a reused workspace needs no prior Zero.
func Im2ColTo(dst, img *tensor.Tensor, g tensor.ConvGeom) *tensor.Tensor {
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

// Col2ImTo is Im2ColTo's adjoint: it scatters a (InC*KH*KW)×(OutH*OutW)
// gradient matrix into a caller-owned image-gradient buffer with
// InC*InH*InW elements (any shape), summing overlaps. The buffer is zeroed
// first, so it may hold stale contents. dst must not alias cols.
func Col2ImTo(dstT, cols *tensor.Tensor, g tensor.ConvGeom) *tensor.Tensor {
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
