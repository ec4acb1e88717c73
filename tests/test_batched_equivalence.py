"""The batched forward/backward against a stored per-item reference.

``tests/data/reference_batches.npz`` holds the loss, every parameter
gradient and every item's class distribution computed by the earlier
item-by-item implementation (one tape node per single-vector op) on the
problems built below. The batched tape must reproduce them to 1e-10.
"""

from pathlib import Path

import numpy as np
import pytest

from mmfnd.rng import Rng

from gradcheck import build_gradcheck_problem

REFERENCE = Path(__file__).parent / "data" / "reference_batches.npz"
CASES = ("none", "no_A", "no_M", "no_E", "ragged")
TOL = 1e-10


def reference_problem(case):
    """The four ablations on the default gradcheck problem, plus a ragged
    batch: description counts 0, 3, 1 and 2, item 2 with a precomputed text
    vector and item 3 with precomputed description vectors."""
    if case != "ragged":
        return build_gradcheck_problem(ablation=case)
    model, feats = build_gradcheck_problem(n_desc=3)
    gen = Rng(5).stream("ragged")
    d = model.config.d
    feats[0].descs = []
    feats[2].descs = feats[2].descs[:1]
    feats[2].text = gen.normal(size=d)
    feats[3].descs = [gen.normal(size=d), gen.normal(size=d)]
    return model, feats


@pytest.fixture(scope="module")
def reference():
    with np.load(REFERENCE) as archive:
        return {key: archive[key] for key in archive.files}


@pytest.mark.parametrize("case", CASES)
def test_batched_path_matches_per_item_reference(case, reference):
    model, feats = reference_problem(case)
    loss, parts = model.batch_loss(feats)
    model.params.reset_gradients()
    loss.backward()
    assert abs(float(loss.data) - reference[f"{case}/loss"]) <= TOL
    assert parts["total"] == float(loss.data)
    grads = {key.split("/", 2)[2] for key in reference if key.startswith(f"{case}/grad/")}
    assert grads == set(model.params.names())
    for name in grads:
        np.testing.assert_allclose(
            model.params[name].grad, reference[f"{case}/grad/{name}"], rtol=0, atol=TOL,
            err_msg=name,
        )
    probs = model.predict_batch(feats).probs
    np.testing.assert_allclose(probs, reference[f"{case}/probs"], rtol=0, atol=TOL)
