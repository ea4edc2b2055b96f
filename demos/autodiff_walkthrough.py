# A short tour of the reverse-mode autodiff core.
#
# Everything in this library runs on a small tape-based autodiff engine over
# float64 numpy arrays. This script builds a few graphs by hand, checks the
# gradients against finite differences, and shows temperature sharpening.

import numpy as np

from retinassl import autodiff as ad
from retinassl.autodiff import Tape, Tensor, backward, finite_difference
from retinassl.distill import teacher_probs

# A Tensor wraps a numpy array. Only leaves we mark requires_grad=True will
# have their .grad slot filled by backward().
x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)

with Tape() as tape:
    y = ad.tensor_sum(x * x)

backward(y, tape)
print("d/dx sum(x^2) =", x.grad)  # expect [2, 4, 6]

# The same machinery drives a small two-layer network. Gradients can always
# be cross-checked with central finite differences.
rng = np.random.default_rng(0)
w1 = Tensor(rng.normal(size=(3, 4)) * 0.5, requires_grad=True)
w2 = Tensor(rng.normal(size=(4, 2)) * 0.5, requires_grad=True)
inputs = Tensor(rng.normal(size=(5, 3)))


def loss_fn():
    h = ad.gelu(ad.matmul(inputs, w1))
    out = ad.matmul(h, w2)
    return ad.tensor_sum(out * out)


with Tape() as tape:
    loss = loss_fn()
backward(loss, tape, leaves=(w1, w2))

numeric = finite_difference(lambda: loss_fn().item(), (w1, w2), epsilon=1e-6)
for name, p, num in (("w1", w1, numeric[0]), ("w2", w2, numeric[1])):
    rel = np.abs(p.grad - num) / np.maximum(np.abs(num), 1e-3)
    print(f"{name}: max relative error vs finite differences = {rel.max():.2e}")

# Softmax with temperature is the workhorse of the distillation loss. Lower
# temperature sharpens the distribution; this is exactly how the teacher's
# targets are made more confident than the student's predictions. The
# teacher's softmax needs no gradient, so it is plain numpy, not a taped op;
# with a zero centre it is the plain softmax of logits / tau.
logits = np.array([[2.0, 1.0, 0.0]])
for tau in (1.0, 0.1, 0.04):
    p = teacher_probs(logits, np.zeros(3), tau)
    print(f"softmax at tau={tau}: {np.round(p[0], 4)}")
