"""Cross-validation builds each record's fine-tune pair once per plan call.

``plan_finetune_crossvals`` builds every record's pair with one pair-builder
call and hands each fold job its training records' pairs.  A fold must
still train on exactly what the builder gives for that fold's records, so
its ``training_digest`` (the adapter cache key) does not move.
"""

import pytest

from repro.dataset.drbml import DRBMLDataset
from repro.dataset.pairs import build_advanced_pairs, build_basic_pairs
import repro.eval.crossval as crossval
from repro.eval.experiments import default_subset
from repro.llm.finetune import FineTuner


@pytest.fixture(scope="module")
def mini():
    subset = default_subset()
    positives = [r for r in subset.records if r.has_race][:7]
    negatives = [r for r in subset.records if not r.has_race][:6]
    return DRBMLDataset(records=negatives[:3] + positives + negatives[3:])


@pytest.mark.parametrize(
    "kind, builder_name, builder",
    [("basic", "build_basic_pairs", build_basic_pairs), ("advanced", "build_advanced_pairs", build_advanced_pairs)],
)
def test_fold_pairs_equal_per_fold_builds(monkeypatch, mini, kind, builder_name, builder):
    jobs, builds = [], []
    fine_tune_all = crossval.fine_tune_all

    def spying_fine_tune_all(fold_jobs, engine):
        fold_jobs = list(fold_jobs)
        jobs.extend(fold_jobs)
        return fine_tune_all(fold_jobs, engine)

    def counting_builder(records):
        builds.append(len(records))
        return builder(records)

    monkeypatch.setattr(crossval, "fine_tune_all", spying_fine_tune_all)
    monkeypatch.setattr(crossval, builder_name, counting_builder)
    models = ["starchat-beta", "llama2-7b"]
    crossval.plan_finetune_crossvals(mini, models, kind=kind, n_folds=3, seed=11)

    assert builds == [len(mini.records)]
    assignments = mini.folds(n_folds=3, seed=11)
    assert len(jobs) == len(models) * len(assignments)
    for index, (_tuner, pairs) in enumerate(jobs):
        assignment = assignments[index % len(assignments)]
        expected = builder(mini.records_for(assignment.train_names))
        assert pairs == expected
        assert FineTuner.training_digest(pairs) == FineTuner.training_digest(expected)
