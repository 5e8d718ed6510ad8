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
// substitute for 3×32×32 CIFAR); see DESIGN.md §2 for the substitution
// rationale. Factories are deterministic in the supplied RNG, which is how
// FL clients reconstruct identical architectures before loading parameter
// vectors.
package models

import (
	"fmt"
	"sort"

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
// fully connected layers. Here and below a ReLU directly in front of a
// max pool is built as the one layer nn.NewReLUMaxPool2D — the same bits
// in both directions, one pass over the activations.
func CNN(classes int) Factory {
	return Factory{
		Name: fmt.Sprintf("cnn-%d", classes),
		New: func(rng *tensor.RNG) *nn.Sequential {
			g1 := tensor.ConvGeom{InC: VisionC, InH: VisionH, InW: VisionW, KH: 3, KW: 3, Stride: 1, Pad: 1}
			c1 := nn.NewConv2D(g1, 8, rng)
			p1 := nn.NewReLUMaxPool2D(8, VisionH, VisionW, 2)
			g2 := tensor.ConvGeom{InC: 8, InH: VisionH / 2, InW: VisionW / 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
			c2 := nn.NewConv2D(g2, 16, rng)
			p2 := nn.NewReLUMaxPool2D(16, VisionH/2, VisionW/2, 2)
			return nn.NewSequential(
				c1, p1,
				c2, p2,
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
			stem := nn.NewConv2D(tensor.ConvGeom{InC: VisionC, InH: VisionH, InW: VisionW, KH: 3, KW: 3, Stride: 1, Pad: 1}, ch, rng)
			block := func(h, w int) nn.Layer {
				g := tensor.ConvGeom{InC: ch, InH: h, InW: w, KH: 3, KW: 3, Stride: 1, Pad: 1}
				body := nn.NewSequential(
					nn.NewConv2D(g, ch, rng), nn.NewReLU(),
					nn.NewConv2D(g, ch, rng),
				)
				return nn.NewResidual(body)
			}
			return nn.NewSequential(
				stem, nn.NewReLU(),
				block(VisionH, VisionW),
				nn.NewReLUMaxPool2D(ch, VisionH, VisionW, 2),
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
			conv := func(inC, outC, h, w int) *nn.Conv2D {
				return nn.NewConv2D(tensor.ConvGeom{InC: inC, InH: h, InW: w, KH: 3, KW: 3, Stride: 1, Pad: 1}, outC, rng)
			}
			return nn.NewSequential(
				conv(VisionC, 16, VisionH, VisionW), nn.NewReLU(),
				conv(16, 16, VisionH, VisionW),
				nn.NewReLUMaxPool2D(16, VisionH, VisionW, 2),
				conv(16, 32, VisionH/2, VisionW/2), nn.NewReLU(),
				conv(32, 32, VisionH/2, VisionW/2),
				nn.NewReLUMaxPool2D(32, VisionH/2, VisionW/2, 2),
				nn.NewLinear(32*(VisionH/4)*(VisionW/4), 64, rng), nn.NewReLU(),
				nn.NewLinear(64, classes, rng),
			)
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

// Registry returns the named stock factories for the CLI tools, keyed by
// a short architecture name.
func Registry(classes int) map[string]Factory {
	return map[string]Factory{
		"cnn":    CNN(classes),
		"resnet": ResNetMini(classes),
		"vgg":    VGGMini(classes),
		"mlp":    MLP(VisionFeatures, 32, classes),
	}
}

// Names returns the sorted registry keys.
func Names() []string {
	ks := make([]string, 0, 4)
	for k := range Registry(10) {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
