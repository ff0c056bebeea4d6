"""Per-(model, strategy) latency cost model driving the engine's scheduling.

The evaluation workload is embarrassingly parallel but *heterogeneous*: a
fine-tuned Llama answering ADVANCED pair prompts costs orders of magnitude
more wall time per request than a cached GPT-3.5 yes/no check.  The engine
therefore keeps a :class:`CostModel` — an exponentially weighted moving
average (EWMA) of observed seconds-per-request for every
``(model.cache_identity, strategy)`` group — and uses it two ways:

* **LPT ordering** — chunks are dispatched longest-processing-time first,
  so the expensive groups start immediately and the cheap ones pack into
  the gaps, instead of a slow group scheduled last turning into a straggler
  tail while every other worker idles (classic list-scheduling: LPT bounds
  the makespan at 4/3 of optimal, arbitrary order only at 2×).
* **adaptive chunk sizing** — slow groups get smaller chunks (finer
  scheduling granularity, so one chunk can never add a long indivisible
  tail) and fast or cached groups get larger ones (less per-chunk
  overhead).

Observations are fed by the engine after every chunk completes, so a
long-lived engine (the CLI's ``repro all``, the pipeline facade, the
benchmark harness) adapts from its own telemetry within a session.  The
model can also be persisted as a small JSON file beside the response
cache (the CLI stores ``costmodel.json`` inside the ``--cache``
directory), so the *first* run of a new session already knows which
groups are slow.

Like the response cache, a cost model store is an optimisation, never a
requirement: a missing, corrupt or version-mismatched file loads as empty
and the scheduler falls back to plan order and uniform chunk sizes.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = ["CostModel"]

#: Mean absolute deviation of a normal distribution is sqrt(2/pi) * sigma;
#: this converts the EWMA of absolute residuals back to a sigma estimate.
_MAD_TO_SIGMA = math.sqrt(math.pi / 2.0)

#: Bump when the on-disk layout changes.
_FORMAT = "repro-cost-model"
_FORMAT_VERSION = 1


class CostModel:
    """EWMA seconds-per-request estimates per ``(model identity, strategy)``.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor in ``(0, 1]``: the weight of the newest
        observation.  The default favours stability over reactivity — one
        anomalously slow chunk (GC pause, cold pool) should not reorder the
        whole next run.
    path:
        Optional JSON store; loaded on construction when it exists,
        written by :meth:`save`.
    """

    def __init__(
        self, *, alpha: float = 0.25, path: Optional[Union[str, Path]] = None
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._ewma: Dict[Tuple[str, str], float] = {}
        #: EWMA of the *absolute residual* |observation - mean| per group —
        #: a robust dispersion estimate feeding :meth:`quantile_estimate`,
        #: so the scheduler can reason about tails, not just means.
        self._deviation: Dict[Tuple[str, str], float] = {}
        self._observations: Dict[Tuple[str, str], int] = {}
        #: identity -> strategies observed for it, so per-identity queries
        #: (:meth:`identity_estimate`, called on the cache's eviction hot
        #: path) scan a handful of strategies instead of every group.
        self._identity_strategies: Dict[str, set] = {}
        #: Planning-only priors for never-observed groups (e.g. the cascade's
        #: analyzer tiers advertising ``cost_prior_s``).  Never persisted and
        #: never blended into the EWMA: the first real observation simply
        #: shadows the prior.
        self._priors: Dict[Tuple[str, str], float] = {}
        #: One warning per instance when persistence degrades (see save()).
        self._io_warned = False
        if self.path is not None and self.path.exists():
            self.load(self.path)

    def __len__(self) -> int:
        """How many (identity, strategy) groups have an estimate."""
        with self._lock:
            return len(self._ewma)

    def __bool__(self) -> bool:
        # An empty model is still a usable model.
        return True

    # -- recording / querying -------------------------------------------------------

    def observe(self, identity: str, strategy: str, seconds_per_request: float) -> None:
        """Fold one chunk's measured per-request latency into the EWMA.

        Non-finite observations are rejected outright: ``nan`` compares
        false against every bound, so a single NaN would silently poison
        the EWMA, ``identity_estimate``'s ``max()``, ``snapshot()``'s sort
        and the LPT ordering — and then persist via ``costmodel.json``.
        """
        if not math.isfinite(seconds_per_request) or seconds_per_request < 0:
            return
        key = (identity, strategy)
        with self._lock:
            previous = self._ewma.get(key)
            if previous is None:
                self._ewma[key] = seconds_per_request
                self._deviation[key] = 0.0
            else:
                # Residual against the *pre-update* mean: measuring against
                # the already-blended mean would shrink every residual by
                # (1 - alpha) and systematically understate the spread.
                residual = abs(seconds_per_request - previous)
                self._ewma[key] = (
                    self.alpha * seconds_per_request + (1.0 - self.alpha) * previous
                )
                self._deviation[key] = (
                    self.alpha * residual
                    + (1.0 - self.alpha) * self._deviation.get(key, 0.0)
                )
            self._observations[key] = self._observations.get(key, 0) + 1
            self._identity_strategies.setdefault(identity, set()).add(strategy)

    def estimate(
        self, identity: str, strategy: str, default: Optional[float] = None
    ) -> Optional[float]:
        """Estimated seconds per request, or ``default`` when never observed."""
        with self._lock:
            return self._ewma.get((identity, strategy), default)

    def set_prior(self, identity: str, strategy: str, seconds_per_request: float) -> None:
        """Register a planning-only default cost for a never-observed group.

        This is the cold-start fix for non-LLM cascade tiers: an analyzer
        tier with no observations must price as *cheap-but-unknown* rather
        than returning ``None`` and blocking LPT ordering for the whole
        plan.  Priors only affect :meth:`planning_estimate` — they never
        feed :meth:`quantile_estimate` (no speculation on groups whose
        spread was never measured), :meth:`identity_estimate`,
        :meth:`snapshot` or the persisted store.
        """
        if not math.isfinite(seconds_per_request) or seconds_per_request < 0:
            return
        with self._lock:
            self._priors[(identity, strategy)] = float(seconds_per_request)

    def planning_estimate(
        self, identity: str, strategy: str, default: Optional[float] = None
    ) -> Optional[float]:
        """Like :meth:`estimate`, but falling back to a registered prior.

        Observations always win; the prior only fills the cold-start gap.
        For groups with neither an observation nor a prior this behaves
        exactly like :meth:`estimate`.
        """
        with self._lock:
            value = self._ewma.get((identity, strategy))
            if value is not None:
                return value
            return self._priors.get((identity, strategy), default)

    def quantile_estimate(
        self,
        identity: str,
        strategy: str,
        quantile: float = 0.95,
        default: Optional[float] = None,
    ) -> Optional[float]:
        """Estimated per-request seconds at ``quantile``, or ``default``.

        Approximates the observation distribution as normal around the
        EWMA mean, with sigma recovered from the EWMA of absolute
        residuals.  This is what tail-latency decisions (speculative
        re-execution) key on: a chunk is only a straggler relative to the
        *spread* of its group, not its mean — a noisy group should need a
        larger overshoot before a duplicate is launched.  With a single
        observation (deviation 0) this degrades to the mean, exactly like
        :meth:`estimate`.
        """
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        with self._lock:
            key = (identity, strategy)
            mean = self._ewma.get(key)
            if mean is None:
                return default
            sigma = self._deviation.get(key, 0.0) * _MAD_TO_SIGMA
        if sigma <= 0.0:
            return mean
        z = statistics.NormalDist().inv_cdf(quantile)
        return max(mean, mean + z * sigma)

    def identity_estimate(
        self, identity: str, default: Optional[float] = None
    ) -> Optional[float]:
        """The *worst-case* seconds-per-request estimate for one model identity.

        The maximum over every strategy observed for ``identity`` — the
        right number for decisions made per model rather than per group,
        like the response cache's eviction rule (a cached response
        is worth at most what regenerating it would cost).  ``default``
        when the identity was never observed under any strategy.
        """
        with self._lock:
            strategies = self._identity_strategies.get(identity)
            if not strategies:
                return default
            return max(self._ewma[(identity, strategy)] for strategy in strategies)

    def snapshot(self) -> List[Dict[str, object]]:
        """Every group's estimate as plain dicts (slowest first)."""
        with self._lock:
            groups = [
                {
                    "model": identity,
                    "strategy": strategy,
                    "seconds_per_request": value,
                    "seconds_dev": self._deviation.get((identity, strategy), 0.0),
                    "observations": self._observations.get((identity, strategy), 0),
                }
                for (identity, strategy), value in self._ewma.items()
            ]
        groups.sort(key=lambda g: -g["seconds_per_request"])  # type: ignore[operator]
        return groups

    def clear(self) -> None:
        with self._lock:
            self._ewma.clear()
            self._deviation.clear()
            self._observations.clear()
            self._identity_strategies.clear()
            self._priors.clear()

    # -- persistence ----------------------------------------------------------------

    def save(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Write the model as one small JSON file (temp file + atomic rename).

        Like the response cache's save, I/O failure (full disk, read-only
        directory) is warned once per instance instead of raised — the
        store is an optimisation, and losing it must not abort the run
        whose results it would have primed.  The estimates stay in memory.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no cost-model path configured")
        payload = {
            "format": _FORMAT,
            "version": _FORMAT_VERSION,
            "alpha": self.alpha,
            "groups": self.snapshot(),
        }
        tmp_name = None
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=f".{target.name}-", suffix=".tmp", dir=target.parent
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
            os.replace(tmp_name, target)
        except OSError as exc:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            if not self._io_warned:
                self._io_warned = True
                warnings.warn(
                    f"[costmodel] save to {target} failed ({exc}); "
                    "estimates kept in memory",
                    RuntimeWarning,
                    stacklevel=2,
                )
        except BaseException:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            raise
        return target

    def load(self, path: Union[str, Path]) -> int:
        """Merge estimates from ``path``; damaged stores load as empty.

        Returns how many groups were applied.  Loaded estimates overwrite
        in-memory ones for the same group (the store is assumed newer than
        nothing), but never raise: the cost model degrades to plan-order
        scheduling, exactly like a cold start.
        """
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return 0
        if (
            not isinstance(payload, dict)
            or payload.get("format") != _FORMAT
            or payload.get("version") != _FORMAT_VERSION
            or not isinstance(payload.get("groups"), list)
        ):
            return 0
        applied = 0
        with self._lock:
            for group in payload["groups"]:
                if not isinstance(group, dict):
                    continue
                identity = group.get("model")
                strategy = group.get("strategy")
                seconds = group.get("seconds_per_request")
                if (
                    not isinstance(identity, str)
                    or not isinstance(strategy, str)
                    or not isinstance(seconds, (int, float))
                    # json.loads happily parses the NaN/Infinity literals
                    # json.dump emits, so a poisoned store would round-trip
                    # forever without this guard.
                    or not math.isfinite(seconds)
                    or seconds < 0
                ):
                    continue
                key = (identity, strategy)
                self._ewma[key] = float(seconds)
                deviation = group.get("seconds_dev")
                self._deviation[key] = (
                    float(deviation)
                    if isinstance(deviation, (int, float))
                    and math.isfinite(deviation)
                    and deviation >= 0
                    else 0.0
                )
                self._identity_strategies.setdefault(identity, set()).add(strategy)
                observations = group.get("observations")
                self._observations[key] = (
                    int(observations) if isinstance(observations, int) and observations > 0 else 1
                )
                applied += 1
        return applied

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CostModel groups={len(self)} alpha={self.alpha}>"
