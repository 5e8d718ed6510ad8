// Package models defines the CPU-scale model zoo used by the FedCross
// reproduction. Each model mirrors one of the paper's architectures:
//
//	CNN        — the FedAvg 2-conv/2-fc CNN
//	ResNetMini — stands in for ResNet-20 (conv stem + residual blocks)
//	VGGMini    — stands in for VGG-16 (deepest plain conv stack, largest
//	             parameter count in the zoo, so it shows the paper's
//	             "big model is slow early" effect)
//	MLP        — a small fully connected baseline for fast tests
//	CharLSTM   — stands in for the Shakespeare next-character LSTM
//	SentLSTM   — stands in for the Sent140 sentiment LSTM
//
// All vision models consume flattened 3×8×8 images (the synthetic
// substitute for 3×32×32 CIFAR); package data's comment gives the
// substitution rationale. Factories are deterministic in the supplied RNG, which is how
// FL clients reconstruct identical architectures before loading parameter
// vectors.
package models

import (
	"fmt"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// Vision input geometry shared by all image models.
const (
	VisionC = 3
	VisionH = 8
	VisionW = 8
	// VisionFeatures is the flattened input width of vision models.
	VisionFeatures = VisionC * VisionH * VisionW
)

// Factory constructs fresh, randomly initialised network instances.
type Factory struct {
	// Name identifies the architecture in configs and reports, and keys
	// the process-wide replica pool (Replicas) — it must therefore encode
	// every architectural dimension, as the stock factories do.
	Name string
	// New builds a fresh instance; equal RNG seeds give equal weights.
	New func(rng *tensor.RNG) *nn.Sequential
}

// CNN mirrors the paper's FedAvg CNN: two conv+ReLU+pool stages and two
// fully connected layers. Here and below a convolution directly followed
// by a ReLU and a max pool is built as the one layer nn.NewConv2DReLUPool,
// whose pool runs inside the convolution's Winograd output transform. The
// one ReLU and pool with no convolution before them, ResNetMini's after
// its first residual block, is nn.NewReLUMaxPool2D, the zoo's only
// standalone pool. Both are the same bits in both directions as a ReLU
// followed by a 2×2 max pool.
func CNN(classes int) Factory {
	return Factory{
		Name: fmt.Sprintf("cnn-%d", classes),
		New: func(rng *tensor.RNG) *nn.Sequential {
			c1 := nn.NewConv2DReLUPool(VisionC, VisionH, VisionW, 8, rng)
			c2 := nn.NewConv2DReLUPool(8, VisionH/2, VisionW/2, 16, rng)
			return nn.NewSequential(
				c1, c2,
				nn.NewLinear(16*(VisionH/4)*(VisionW/4), 32, rng), nn.NewReLU(),
				nn.NewLinear(32, classes, rng),
			)
		},
	}
}

// ResNetMini stands in for ResNet-20: a conv stem, two residual blocks and
// a global-average-pool head.
func ResNetMini(classes int) Factory {
	return Factory{
		Name: fmt.Sprintf("resnet-mini-%d", classes),
		New: func(rng *tensor.RNG) *nn.Sequential {
			const ch = 12
			stem := nn.NewConv2D(VisionC, VisionH, VisionW, ch, rng)
			block := func(h, w int) nn.Layer {
				body := nn.NewSequential(
					nn.NewConv2D(ch, h, w, ch, rng), nn.NewReLU(),
					nn.NewConv2D(ch, h, w, ch, rng),
				)
				return nn.NewResidual(body)
			}
			return nn.NewSequential(
				stem, nn.NewReLU(),
				block(VisionH, VisionW),
				nn.NewReLUMaxPool2D(ch, VisionH, VisionW),
				block(VisionH/2, VisionW/2), nn.NewReLU(),
				nn.NewGlobalAvgPool(ch, VisionH/2, VisionW/2),
				nn.NewLinear(ch, classes, rng),
			)
		},
	}
}

// VGGMini stands in for VGG-16: the deepest plain conv stack in the zoo and
// the largest parameter count, preserving the paper's observation that
// connection-intensive models start slower.
func VGGMini(classes int) Factory {
	return Factory{
		Name: fmt.Sprintf("vgg-mini-%d", classes),
		New: func(rng *tensor.RNG) *nn.Sequential {
			// A block is conv → ReLU → conv → ReLU → 2×2 pool, its second
			// conv built with the ReLU and the pool folded in.
			block := func(inC, h, w, outC int) []nn.Layer {
				return []nn.Layer{nn.NewConv2D(inC, h, w, outC, rng), nn.NewReLU(), nn.NewConv2DReLUPool(outC, h, w, outC, rng)}
			}
			layers := append(block(VisionC, VisionH, VisionW, 16), block(16, VisionH/2, VisionW/2, 32)...)
			return nn.NewSequential(append(layers,
				nn.NewLinear(32*(VisionH/4)*(VisionW/4), 64, rng), nn.NewReLU(),
				nn.NewLinear(64, classes, rng),
			)...)
		},
	}
}

// MLP is a small two-layer perceptron over arbitrary flat features, used
// by fast tests and the theory experiments.
func MLP(in, hidden, classes int) Factory {
	return Factory{
		Name: fmt.Sprintf("mlp-%d-%d-%d", in, hidden, classes),
		New: func(rng *tensor.RNG) *nn.Sequential {
			return nn.NewSequential(
				nn.NewLinear(in, hidden, rng), nn.NewReLU(),
				nn.NewLinear(hidden, classes, rng),
			)
		},
	}
}

// CharLSTM stands in for the Shakespeare model: embedding, LSTM, and a
// next-character softmax head over the vocabulary.
func CharLSTM(vocab, seqLen, embed, hidden int) Factory {
	return Factory{
		Name: fmt.Sprintf("char-lstm-v%d-t%d-e%d-h%d", vocab, seqLen, embed, hidden),
		New: func(rng *tensor.RNG) *nn.Sequential {
			return nn.NewSequential(
				nn.NewEmbedding(vocab, embed, rng),
				nn.NewLSTM(seqLen, embed, hidden, rng),
				nn.NewLinear(hidden, vocab, rng),
			)
		},
	}
}

// SentLSTM stands in for the Sent140 model: embedding, LSTM, and a binary
// sentiment head.
func SentLSTM(vocab, seqLen, embed, hidden int) Factory {
	return Factory{
		Name: fmt.Sprintf("sent-lstm-v%d-t%d-e%d-h%d", vocab, seqLen, embed, hidden),
		New: func(rng *tensor.RNG) *nn.Sequential {
			return nn.NewSequential(
				nn.NewEmbedding(vocab, embed, rng),
				nn.NewLSTM(seqLen, embed, hidden, rng),
				nn.NewLinear(hidden, 2, rng),
			)
		},
	}
}
