package nn

import (
	"fmt"

	"melissa/internal/tensor"
)

// MSELoss is the mean-squared-error loss averaged over every element of the
// batch (batch size × output width), matching PyTorch's nn.MSELoss default
// reduction that the paper's training loop uses.
type MSELoss struct {
	grad scratch
}

// NewMSELoss returns an MSE loss.
func NewMSELoss() *MSELoss { return &MSELoss{} }

// Forward returns the scalar loss for predictions pred against target.
func (l *MSELoss) Forward(pred, target *tensor.Matrix) float64 {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic(fmt.Sprintf("nn: MSE shape mismatch %dx%d vs %dx%d", pred.Rows, pred.Cols, target.Rows, target.Cols))
	}
	return MSE(pred.Data, target.Data)
}

// Backward returns dLoss/dPred for the most recent shapes:
// 2·(pred − target)/N with N the total element count. The returned matrix is
// reused between calls.
func (l *MSELoss) Backward(pred, target *tensor.Matrix) *tensor.Matrix {
	grad := l.grad.get(pred.Rows, pred.Cols)
	tensor.SubScale(grad.Data, pred.Data, target.Data, 2/float32(len(pred.Data)))
	return grad
}

// MSE computes the mean-squared error between two flat vectors; a
// convenience for validation metrics.
func MSE(pred, target []float32) float64 {
	return tensor.SqDiffSum(pred, target) / float64(len(pred))
}
