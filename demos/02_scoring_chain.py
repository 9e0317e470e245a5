#!/usr/bin/env python3
"""The pair-scoring chain, one intermediate at a time.

For a candidate citation i -> j the model computes
  r_i, r_j     fused unit-norm representations (text || structural)
  c_ij         citation effect of the cited node from its influence state
  e_ij         elementwise similarity of the two representations
  D_ij         per-aspect impact vector
  alpha        the chosen aspect's index, sampled (train) or argmax (infer)
  Y_ij         nonnegative impact masked to the chosen aspect
  F_ij         scalar link score

Every step is the batched chain run on one row. `impacts_from_representations`
gives c, e and D; `impacts_for_pairs`, which scores all train edges in a
propagation phase and every candidate pair in evaluation, runs that chain in
blocks of pairs and returns only F and D.
"""

import numpy as np

from aspectcite import Dims, ModelParams, initialize_state, sample_aspect
from aspectcite.model import (
    impacts_for_pairs,
    impacts_from_representations,
    masked_impacts,
    representations_for,
    select_aspects,
)
from aspectcite.seeding import substream

dims = Dims(aspects=3, text_dim=4, struct_dim=3)
params = ModelParams.initialize(dims, num_nodes=5, rng=substream(7, "init"))
state = initialize_state(num_nodes=5, aspects=3)
texts = substream(7, "texts").normal(size=(5, 4))

i, j = 0, 2
reps, norms = representations_for(np.array([i, j]), texts, params)
for node, r, norm in zip((i, j), reps, norms[:, 0]):
    print(f"r_{node} = {np.round(r, 3)}  (norm {np.linalg.norm(r):.6f}, {norm:.3f} before normalizing)")

# rows 0 and 1 of `reps` are r_i and r_j; the cited node's state row is d_j
c, e, d = impacts_from_representations(reps, [0], [1], state.matrix[[j]], params)
print(f"c_ij (state-driven effect of the cited node) = {np.round(c[0], 4)}")
print(f"e_ij (similarity, first 4 coords) = {np.round(e[0, :4], 4)}")
print(f"D_ij (per-aspect impact) = {np.round(d[0], 4)}")

alpha_infer, probs = sample_aspect(d[0], mode="infer")
print(f"infer-mode aspect: one-hot {alpha_infer}, class probabilities {np.round(probs, 3)}")

rng = substream(7, "gumbel")
draws = [int(sample_aspect(d[0], mode="train", rng=rng)[0].argmax()) for _ in range(12)]
print(f"train-mode Gumbel draws (12x): {draws}")

chosen = select_aspects(d)  # the batched infer-mode choice: one argmax index per row
print(f"chosen aspect (batched, infer) = {chosen[0]}")
print(f"Y_ij (masked nonnegative impact) = {np.round(masked_impacts(d, chosen)[0], 4)}")
f, d_batched = impacts_for_pairs(np.array([(i, j)]), state.matrix, params, texts)
print(f"F_ij (link score) = sum(c) + sum(e) = {c.sum() + e.sum():.6f}; impacts_for_pairs gives {f[0]:.6f}")
assert np.array_equal(d_batched, d)
