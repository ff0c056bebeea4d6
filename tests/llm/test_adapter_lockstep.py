"""The lockstep adapter kernel against the per-adapter loop it replaced.

``reference_fit`` is the one-adapter SGD loop ``LowRankAdapter.fit`` ran
before :func:`repro.llm.adapters.fit_adapters` trained adapters in
lockstep.  The kernel stacks the same float operations along a leading
adapter axis, so every adapter must come out bit-identical to it: weights,
bias and final loss.
"""

import numpy as np
import pytest

from repro.llm.adapters import LowRankAdapter, _sigmoid, adapter_projection, fit_adapters


def reference_fit(adapter, features, labels, *, learning_rate, epochs, batch_size, l2=1e-3):
    """The per-adapter loop, kept verbatim as the oracle."""
    rng = np.random.default_rng(adapter.seed + 1)
    projected = features @ adapter.projection
    n = projected.shape[0]
    last_loss = float("inf")
    eps = 1e-9
    for epoch in range(epochs):
        final = epoch == epochs - 1
        order = rng.permutation(n)
        rows = projected[order]
        if adapter.dropout > 0:
            mask = rng.random(rows.shape) >= adapter.dropout
            rows = rows * mask / (1.0 - adapter.dropout)
        targets = labels[order]
        losses = []
        for start in range(0, n, batch_size):
            batch = rows[start : start + batch_size]
            target = targets[start : start + batch_size]
            m = batch.shape[0]
            logits = batch @ adapter.weights + adapter.bias
            probs = _sigmoid(logits)
            error = probs - target
            grad_w = batch.T @ error / m + l2 * adapter.weights
            grad_b = float(np.add.reduce(error) / m)
            adapter.weights -= learning_rate * grad_w
            adapter.bias -= learning_rate * grad_b
            if final:
                losses.append(
                    float(
                        -np.mean(
                            target * np.log(probs + eps)
                            + (1 - target) * np.log(1 - probs + eps)
                        )
                    )
                )
        if losses:
            last_loss = float(np.mean(losses))
    return last_loss


def _dataset(n, input_dim, seed):
    rng = np.random.default_rng(seed)
    features = rng.normal(0.0, 1.0, size=(n, input_dim))
    features /= np.linalg.norm(features, axis=1, keepdims=True)
    labels = (features[:, 0] + 0.4 * features[:, 1] > 0).astype(np.float64)
    return features, labels


def _check_lockstep(jobs, *, input_dim, rank, dropout, epochs, batch_size):
    """``jobs`` holds (n, seed, learning_rate) per adapter."""
    datasets = [_dataset(n, input_dim, 100 + i) for i, (n, _, _) in enumerate(jobs)]
    expected = []
    for (n, seed, rate), (features, labels) in zip(jobs, datasets):
        oracle = LowRankAdapter(input_dim=input_dim, rank=rank, dropout=dropout, seed=seed)
        loss = reference_fit(oracle, features, labels, learning_rate=rate,
                             epochs=epochs, batch_size=batch_size)
        expected.append((oracle.weights.tobytes(), oracle.bias, loss))

    adapters = [
        LowRankAdapter(input_dim=input_dim, rank=rank, dropout=dropout, seed=seed)
        for _, seed, _ in jobs
    ]
    losses = fit_adapters(
        adapters,
        [features @ a.projection for a, (features, _) in zip(adapters, datasets)],
        [labels for _, labels in datasets],
        learning_rates=[rate for _, _, rate in jobs],
        epochs=epochs,
        batch_size=batch_size,
        l2=1e-3,
        rngs=[np.random.default_rng(a.seed + 1) for a in adapters],
    )
    got = [(a.weights.tobytes(), a.bias, loss) for a, loss in zip(adapters, losses)]
    assert got == expected
    assert all(type(a.bias) is float and type(loss) is float for a, loss in zip(adapters, losses))


@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize(
    "sizes",
    [(40,), (41, 42, 43, 40), (42, 43), (158, 159, 158, 159, 158), (3,), (3, 2, 7), (9, 40)],
    ids=["K1", "every-remainder", "ragged-2-3", "folds", "n-below-batch",
         "all-below-batch-or-near", "one-below-batch"],
)
def test_lockstep_matches_reference(sizes, dropout):
    rates = (0.1, 0.2, 0.5)
    jobs = [(n, k % 4, rates[k % len(rates)]) for k, n in enumerate(sizes)]
    _check_lockstep(jobs, input_dim=48, rank=16, dropout=dropout, epochs=12, batch_size=4)


def test_lockstep_matches_reference_on_wide_batches():
    """Batches of 9 sum their errors past numpy's 8-way pairwise unroll."""
    jobs = [(37, 1, 0.2), (50, 2, 0.1), (45, 1, 0.3)]
    _check_lockstep(jobs, input_dim=32, rank=8, dropout=0.1, epochs=6, batch_size=9)


def test_lockstep_matches_reference_at_table_shape():
    """Ten folds at the fine-tune config's shape: 512 features, rank 64."""
    jobs = [(158 + k % 2, 1 + k // 5, 0.1 if k < 5 else 0.2) for k in range(10)]
    _check_lockstep(jobs, input_dim=512, rank=64, dropout=0.1, epochs=4, batch_size=4)


def test_fit_is_the_one_adapter_kernel():
    features, labels = _dataset(43, 24, 5)
    oracle = LowRankAdapter(input_dim=24, rank=6, dropout=0.1, seed=3)
    loss = reference_fit(oracle, features, labels, learning_rate=0.2, epochs=9, batch_size=4)
    adapter = LowRankAdapter(input_dim=24, rank=6, dropout=0.1, seed=3)
    assert adapter.fit(features, labels, learning_rate=0.2, epochs=9, batch_size=4) == loss
    assert adapter.weights.tobytes() == oracle.weights.tobytes()
    assert adapter.bias == oracle.bias


def test_second_fit_continues_from_the_trained_head():
    features, labels = _dataset(30, 24, 6)
    oracle = LowRankAdapter(input_dim=24, rank=6, dropout=0.1, seed=2)
    adapter = LowRankAdapter(input_dim=24, rank=6, dropout=0.1, seed=2)
    for _ in range(2):
        loss = reference_fit(oracle, features, labels, learning_rate=0.1, epochs=3, batch_size=4)
        assert adapter.fit(features, labels, learning_rate=0.1, epochs=3, batch_size=4) == loss
    assert adapter.weights.tobytes() == oracle.weights.tobytes()
    assert adapter.bias == oracle.bias


def test_no_adapters_is_no_work():
    assert fit_adapters([], [], [], learning_rates=[], epochs=3, batch_size=4, rngs=[]) == []


def test_mixed_shapes_are_rejected():
    adapters = [LowRankAdapter(input_dim=8, rank=2), LowRankAdapter(input_dim=8, rank=3)]
    with pytest.raises(ValueError):
        fit_adapters(adapters, [np.zeros((4, 2)), np.zeros((4, 3))], [np.zeros(4)] * 2,
                     learning_rates=[0.1, 0.1], epochs=1, batch_size=4, l2=1e-3,
                     rngs=[np.random.default_rng(0)] * 2)


class TestProjection:
    def test_same_arguments_share_one_array(self):
        assert adapter_projection(16, 4, 9) is adapter_projection(16, 4, 9)
        assert LowRankAdapter(input_dim=16, rank=4, seed=9).projection is adapter_projection(16, 4, 9)

    def test_projection_is_read_only(self):
        with pytest.raises(ValueError):
            adapter_projection(16, 4, 9)[0, 0] = 1.0

    def test_values_are_the_seeded_draw(self):
        expected = np.random.default_rng(9).standard_normal((16, 4))
        assert adapter_projection(16, 4, 9).tobytes() == expected.tobytes()

    def test_stored_adapter_draws_no_projection_until_it_scores(self, monkeypatch):
        """An adapter rebuilt from a cache entry is only a trained head: the
        projection is drawn when it first scores, and is the shared array."""
        import json

        import repro.llm.adapters as adapters_module
        from repro.llm.finetune import FineTuneConfig, FineTuner
        from repro.llm.zoo import create_model

        draws = []
        shared = adapters_module.adapter_projection

        def counting(*args):
            draws.append(args)
            return shared(*args)

        monkeypatch.setattr(adapters_module, "adapter_projection", counting)
        config = FineTuneConfig.for_model("llama2-7b")
        tuner = FineTuner(base=create_model("llama2-7b"), config=config)
        entry = json.dumps({"weights": [0.01] * config.lora_rank, "bias": 0.1, "loss": 0.5})
        adapter, loss = tuner._stored(entry)
        assert draws == [] and loss == 0.5
        features = np.ones((2, config.feature_dim))
        adapter.predict_proba(features)
        assert draws == [(config.feature_dim, config.lora_rank, config.seed)]
        assert adapter.projection is shared(config.feature_dim, config.lora_rank, config.seed)
