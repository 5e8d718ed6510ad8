package nn

import (
	"fmt"
	"math"

	"fedcross/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy between logits
// (batch × classes) and integer labels, plus dLoss/dLogits ready for
// Backward. The softmax is computed with the max-subtraction trick for
// numerical stability.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor) {
	grad = tensor.Zeros(logits.Shape...)
	loss = SoftmaxCrossEntropyInto(grad, logits, labels)
	return loss, grad
}

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropy writing dLoss/dLogits
// into a caller-owned grad tensor of the same shape as logits (contents
// are overwritten; grad must not alias logits). It is the zero-allocation
// form the training loop uses with a reused buffer.
func SoftmaxCrossEntropyInto(grad, logits *tensor.Tensor, labels []int) (loss float64) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy expects rank-2 logits, got %v", logits.Shape))
	}
	batch, classes := logits.Shape[0], logits.Shape[1]
	if len(labels) != batch {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy: %d labels for batch %d", len(labels), batch))
	}
	if !tensor.SameShape(grad, logits) {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy: grad shape %v, want %v", grad.Shape, logits.Shape))
	}
	invB := 1.0 / float64(batch)
	for b := 0; b < batch; b++ {
		row := logits.Data[b*classes : (b+1)*classes]
		y := labels[b]
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("nn: SoftmaxCrossEntropy: label %d out of range [0,%d)", y, classes))
		}
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		g := grad.Data[b*classes : (b+1)*classes]
		for j, v := range row {
			e := math.Exp(v - maxV)
			g[j] = e
			sum += e
		}
		loss += math.Log(sum) - (row[y] - maxV)
		invSum := 1.0 / sum
		for j := range g {
			g[j] *= invSum * invB
		}
		g[y] -= invB
	}
	return loss * invB
}

// SoftmaxCrossEntropyLoss computes the mean cross-entropy only, skipping
// the gradient buffer — the evaluation-path form. The loss accumulation is
// identical to SoftmaxCrossEntropyInto's, so both paths report the same
// value for the same logits.
func SoftmaxCrossEntropyLoss(logits *tensor.Tensor, labels []int) float64 {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropyLoss expects rank-2 logits, got %v", logits.Shape))
	}
	batch, classes := logits.Shape[0], logits.Shape[1]
	if len(labels) != batch {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropyLoss: %d labels for batch %d", len(labels), batch))
	}
	loss := 0.0
	for b := 0; b < batch; b++ {
		row := logits.Data[b*classes : (b+1)*classes]
		y := labels[b]
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("nn: SoftmaxCrossEntropyLoss: label %d out of range [0,%d)", y, classes))
		}
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - maxV)
		}
		loss += math.Log(sum) - (row[y] - maxV)
	}
	invB := 1.0 / float64(batch)
	return loss * invB
}

// Softmax returns row-wise softmax probabilities of logits.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	batch, classes := logits.Shape[0], logits.Shape[1]
	out := tensor.Zeros(batch, classes)
	for b := 0; b < batch; b++ {
		row := logits.Data[b*classes : (b+1)*classes]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		o := out.Data[b*classes : (b+1)*classes]
		for j, v := range row {
			o[j] = math.Exp(v - maxV)
			sum += o[j]
		}
		for j := range o {
			o[j] /= sum
		}
	}
	return out
}

// KLToTeacher computes the mean KL(teacher ‖ student) given teacher
// probabilities and student logits, together with dLoss/dStudentLogits.
// It is the distillation loss used by the FedGen baseline.
func KLToTeacher(teacherProbs, studentLogits *tensor.Tensor) (float64, *tensor.Tensor) {
	if !tensor.SameShape(teacherProbs, studentLogits) {
		panic(fmt.Sprintf("nn: KLToTeacher shape mismatch %v vs %v", teacherProbs.Shape, studentLogits.Shape))
	}
	batch, classes := studentLogits.Shape[0], studentLogits.Shape[1]
	student := Softmax(studentLogits)
	loss := 0.0
	grad := tensor.Zeros(batch, classes)
	invB := 1.0 / float64(batch)
	for b := 0; b < batch; b++ {
		t := teacherProbs.Data[b*classes : (b+1)*classes]
		s := student.Data[b*classes : (b+1)*classes]
		g := grad.Data[b*classes : (b+1)*classes]
		for j := range t {
			if t[j] > 0 {
				loss += t[j] * (math.Log(t[j]) - math.Log(math.Max(s[j], 1e-12)))
			}
			// d/dlogits of KL(t||softmax) = softmax - t.
			g[j] = (s[j] - t[j]) * invB
		}
	}
	return loss * invB, grad
}

// Accuracy returns the fraction of rows of logits whose argmax equals the
// label. NaN logits can never win the argmax (`v > bestV` is false for
// NaN either way, but a NaN in position 0 used to win by default), so a
// row of corrupted logits counts as a wrong prediction instead of
// silently as class 0.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	batch, classes := logits.Shape[0], logits.Shape[1]
	if batch == 0 {
		return 0
	}
	correct := 0
	for b := 0; b < batch; b++ {
		row := logits.Data[b*classes : (b+1)*classes]
		best := -1
		bestV := 0.0
		for j, v := range row {
			if math.IsNaN(v) {
				continue
			}
			if best == -1 || v > bestV {
				best, bestV = j, v
			}
		}
		if best == labels[b] {
			correct++
		}
	}
	return float64(correct) / float64(batch)
}
