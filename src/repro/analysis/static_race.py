"""Phase-aware static data-race detector.

:class:`StaticRaceDetector` combines access extraction, may-happen-in-parallel
classification (:mod:`repro.analysis.mhp`), data-sharing classification and
affine dependence testing into a purely static prediction: does the program
contain a data race, and between which access pairs?

This plays the role of the static-analysis tool family the paper discusses
(Locksmith / RELAY / ompVerify), upgraded from a flat pairwise heuristic to a
multi-pass pipeline:

1. **extraction** — :func:`~repro.analysis.accesses.extract_access_model`
   yields access sites plus barrier phases, construct/task identities,
   distributed induction variables, constant loop ranges and unit-level facts
   (injective index arrays, atomic-capture ticket variables);
2. **MHP filtering** — :func:`~repro.analysis.mhp.classify_pair` removes
   pairs that provably never run concurrently (phases, taskwait/taskgroup/
   depend edges, single-thread constructs);
3. **conflict testing** — per-dimension subscript analysis, each side
   normalised in *its own* loop context, with value-range disjointness,
   same-iteration pinning under ``collapse``, injective-index and ticket
   value-flow rules, and ``safelen`` windows for simd-only regions.

Every verdict carries structured :class:`~repro.analysis.diagnostics.Diagnostic`
records with stable ``DRD-*`` rule IDs, and suppressed candidate pairs are
tallied per rule for ``repro analyze --stats`` telemetry.
"""

from __future__ import annotations

import gc
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.accesses import (
    AccessModel,
    AccessSite,
    RegionSummary,
    extract_access_model,
)
from repro.analysis.dependence import (
    SubscriptForm,
    dependence_distance,
    intervals_disjoint,
    may_overlap,
    normalize_subscript,
    value_interval,
)
from repro.analysis.diagnostics import (
    ASSUMPTION_RULES,
    Diagnostic,
    Span,
    rule_confidence,
)
from repro.analysis.mhp import classify_pair
from repro.analysis.sharing import classify_sharing
from repro.cparse import ast, parse
from repro.cparse.symbols import SymbolTable, build_symbol_table

__all__ = ["PredictedRacePair", "StaticRaceReport", "StaticRaceDetector"]


@dataclass(frozen=True)
class PredictedRacePair:
    """A predicted conflicting access pair (static analogue of the ground truth)."""

    first: AccessSite
    second: AccessSite
    reason: str
    rule_id: str = ""

    def variable(self) -> str:
        return self.first.variable


@dataclass
class StaticRaceReport:
    """Result of running the static detector on one program."""

    has_race: bool
    pairs: List[PredictedRacePair] = field(default_factory=list)
    analyzed_accesses: int = 0
    analyzed_regions: int = 0
    diagnostics: List[Diagnostic] = field(default_factory=list)
    # suppression rule id -> number of candidate pairs it proved safe
    suppressions: Counter = field(default_factory=Counter)
    # region index -> number of barrier-delimited phases
    phase_counts: Dict[int, int] = field(default_factory=dict)

    def variables(self) -> List[str]:
        """Distinct variable names involved in predicted races."""
        seen: List[str] = []
        for pair in self.pairs:
            if pair.variable() not in seen:
                seen.append(pair.variable())
        return seen

    @property
    def confidence(self) -> float:
        """Self-assessed reliability of the verdict, in [0, 1].

        Positive verdicts score the best-supported fired rule's calibrated
        confidence.  Clean verdicts start from the control-flow certainty of
        the MHP/mutex passes and lose a small amount per *assumption-bearing*
        suppression class used (injective index arrays, tickets, safelen
        windows, value ranges) — value-flow facts are honest but weaker than
        barrier placement.  No analyzed accesses means the parse saw nothing
        it understood.
        """
        if self.analyzed_accesses <= 0:
            return 0.5
        if self.has_race:
            if self.diagnostics:
                return max(d.confidence for d in self.diagnostics)
            return 0.7
        assumed = {r for r in self.suppressions if r in ASSUMPTION_RULES}
        return max(0.8, 0.93 - 0.03 * len(assumed))


# ---------------------------------------------------------------------------
# mutual exclusion
# ---------------------------------------------------------------------------


def _mutual_exclusion(a: AccessSite, b: AccessSite) -> Optional[str]:
    """Suppression rule id when the two accesses can never run concurrently."""
    ca, cb = a.context, b.context
    if ca.in_atomic and cb.in_atomic:
        return "DRD-MUTEX-ATOMIC"
    if ca.in_critical and cb.in_critical:
        # Unnamed criticals share one global lock; named ones must match.
        if ca.critical_name is None and cb.critical_name is None:
            return "DRD-MUTEX-CRITICAL"
        if ca.critical_name is not None and ca.critical_name == cb.critical_name:
            return "DRD-MUTEX-CRITICAL"
    if set(ca.locks_held) & set(cb.locks_held):
        return "DRD-MUTEX-LOCK"
    if ca.in_ordered and cb.in_ordered:
        return "DRD-MUTEX-ORDERED"
    return None


# ---------------------------------------------------------------------------
# subscript helpers
# ---------------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INDIRECT_RE = re.compile(r"^([A-Za-z_]\w*)\[([A-Za-z_]\w*)\]$")


def _fold_constants(dim: str, constants: Dict[str, int]) -> str:
    """Substitute known integer constants into a subscript dimension text."""
    if not constants:
        return dim
    return _IDENT_RE.sub(
        lambda m: str(constants[m.group(0)])
        if m.group(0) in constants
        else m.group(0),
        dim,
    )


def _normalize_dim(dim: str, site: AccessSite, constants: Dict[str, int]) -> SubscriptForm:
    """Normalize one subscript dimension in the *site's own* loop context.

    Every enclosing induction variable counts (not just the first), plus
    ``linear`` clause variables (which vary per iteration exactly like the
    induction variables), and loop-invariant constants are folded so
    ``i + half`` becomes affine.
    """
    variables = site.context.loop_variables + site.context.linear_vars
    # A linear-clause variable may carry a constant initializer yet vary per
    # iteration, so it must never be folded as a constant.
    folded = _fold_constants(
        dim, {k: v for k, v in constants.items() if k not in variables}
    )
    return normalize_subscript(folded, variables)


def _dim_interval(
    form: SubscriptForm, site: AccessSite
) -> Optional[Tuple[int, int]]:
    """Value interval of an affine dimension over the site's loop range."""
    if not form.is_affine:
        return None
    rng = site.context.loop_range(form.variable) if form.variable else None
    return value_interval(form, rng)


def _injective_dim_var(
    dim: str, site: AccessSite, model: AccessModel
) -> Optional[str]:
    """Loop variable an injective index-array dimension distributes over.

    Matches the ``perm[i]`` shape where ``perm`` was proven an injective map
    by the unit pre-pass and ``i`` is bound by the distributing construct:
    distinct iterations then address provably distinct elements.
    """
    match = _INDIRECT_RE.match(dim.replace(" ", ""))
    if match is None:
        return None
    array, inner = match.group(1), match.group(2)
    if array not in model.injective_arrays:
        return None
    if inner not in site.context.distributed_vars:
        return None
    return inner


def _ticket_dim(dim: str, region: Optional[RegionSummary]) -> bool:
    """True when the dimension is an atomic-capture ticket variable."""
    return region is not None and dim.strip() in region.ticket_vars


# ---------------------------------------------------------------------------
# detector
# ---------------------------------------------------------------------------


@dataclass
class _PairVerdict:
    """Outcome of the conflict test for one candidate pair."""

    conflict: bool
    rule_id: str
    reason: str


class StaticRaceDetector:
    """Purely static race detector over the corpus language subset."""

    def __init__(self, *, max_pairs: int = 16) -> None:
        self.max_pairs = max_pairs

    # -- public API ---------------------------------------------------------------

    def analyze_source(self, source: str) -> StaticRaceReport:
        """Parse and analyze a C source string.

        The cyclic garbage collector is paused for the call. Tokens, AST
        nodes and access sites form no reference cycles and are freed by
        reference counting when the call returns, so a collection during
        the call traverses them and frees nothing. While the collector is
        off, CPython's gen-0 count rises with each allocation and falls
        with each free, so the pause leaves no backlog behind. Only a call
        that found the collector on turns it off, and that call turns it
        back on: a caller that disabled it keeps it disabled, and with
        threads every disable is followed by its own enable, so the process
        ends in the state it started in.
        """
        enabled = gc.isenabled()
        if enabled:
            gc.disable()
        try:
            return self.analyze_unit(parse(source))
        finally:
            if enabled:
                gc.enable()

    def analyze_unit(self, unit: ast.TranslationUnit) -> StaticRaceReport:
        """Analyze an already parsed translation unit."""
        symbols = build_symbol_table(unit)
        model = extract_access_model(unit)
        return self._analyze_model(model, symbols)

    # -- internals ----------------------------------------------------------------

    def _analyze_model(
        self, model: AccessModel, symbols: SymbolTable
    ) -> StaticRaceReport:
        sites = model.sites
        report = StaticRaceReport(has_race=False, analyzed_accesses=len(sites))
        regions = {site.context.region_index for site in sites}
        report.analyzed_regions = len(regions)
        report.phase_counts = {
            index: summary.phase_count for index, summary in model.regions.items()
        }

        shared_sites = [
            site
            for site in sites
            if classify_sharing(site, symbols, region_entry_line=None).races_possible
        ]

        for a, b in combinations(shared_sites, 2):
            if len(report.pairs) >= self.max_pairs:
                break
            if a.variable != b.variable:
                continue
            if not (a.is_write or b.is_write):
                continue
            region = model.regions.get(a.context.region_index)
            ordering, mhp_rule = classify_pair(a.context, b.context, region)
            if not ordering.may_race:
                report.suppressions[mhp_rule or "DRD-REGION-ORDERED"] += 1
                continue
            mutex = _mutual_exclusion(a, b)
            if mutex is not None:
                report.suppressions[mutex] += 1
                continue
            verdict = self._sites_conflict(a, b, model, region)
            if verdict.conflict:
                self._report_pair(report, a, b, verdict)
            else:
                report.suppressions[verdict.rule_id] += 1

        for site in shared_sites:
            if len(report.pairs) >= self.max_pairs:
                break
            verdict = self._self_conflict(site, model)
            if verdict is None:
                continue
            if verdict.conflict:
                self._report_pair(report, site, site, verdict)
            else:
                report.suppressions[verdict.rule_id] += 1

        report.has_race = bool(report.pairs)
        return report

    def _report_pair(
        self,
        report: StaticRaceReport,
        a: AccessSite,
        b: AccessSite,
        verdict: _PairVerdict,
    ) -> None:
        report.pairs.append(
            PredictedRacePair(
                first=a, second=b, reason=verdict.reason, rule_id=verdict.rule_id
            )
        )
        primary = Span(line=a.line, col=a.col, text=a.expr_text)
        secondary = (
            Span(line=b.line, col=b.col, text=b.expr_text) if b is not a else None
        )
        report.diagnostics.append(
            Diagnostic(
                rule_id=verdict.rule_id,
                message=verdict.reason,
                variable=a.variable,
                primary=primary,
                secondary=secondary,
                confidence=rule_confidence(verdict.rule_id),
                region=a.context.region_index,
            )
        )

    # -- pairwise conflict test ----------------------------------------------------

    def _sites_conflict(
        self,
        a: AccessSite,
        b: AccessSite,
        model: AccessModel,
        region: Optional[RegionSummary],
    ) -> _PairVerdict:
        if a.subscript is None or b.subscript is None:
            if a.subscript is None and b.subscript is None:
                return _PairVerdict(True, *self._race_rule(a, b, scalar=True))
            # Scalar vs subscripted use of one name: conservative conflict.
            return _PairVerdict(True, *self._race_rule(a, b, scalar=True))
        dims_a = a.subscript.split(",")
        dims_b = b.subscript.split(",")
        if len(dims_a) != len(dims_b):
            return _PairVerdict(
                True,
                "DRD-DIM-MISMATCH",
                "subscript dimensionality differs; assumed aliasing",
            )

        pinned = (
            a.context.distribution_construct is not None
            and a.context.distribution_construct == b.context.distribution_construct
        )
        distributed: Set[str] = (
            set(a.context.distributed_vars) & set(b.context.distributed_vars)
            if pinned
            else set()
        )
        # Linear-clause variables are bijections of the iteration number, so
        # pinning one pins the (one-dimensional) iteration space as well.
        linear_both: Set[str] = (
            set(a.context.linear_vars) & set(b.context.linear_vars)
            if pinned
            else set()
        )
        pinned_vars: Set[str] = set()
        carried: Optional[int] = None
        any_opaque = False
        any_cross = False

        for da, db in zip(dims_a, dims_b):
            fa = _normalize_dim(da, a, model.constants)
            fb = _normalize_dim(db, b, model.constants)

            # Disjoint value intervals prove the elements differ regardless
            # of which threads execute the accesses.
            if intervals_disjoint(_dim_interval(fa, a), _dim_interval(fb, b)):
                return _PairVerdict(
                    False, "DRD-RANGE-DISJOINT", "subscript value ranges are disjoint"
                )

            if da.strip() == db.strip():
                if _ticket_dim(da, region):
                    # Atomic-capture tickets are unique per dynamic execution,
                    # so equal subscript text never aliases across threads.
                    return _PairVerdict(
                        False,
                        "DRD-TICKET-UNIQUE",
                        "atomic capture hands out unique indices",
                    )
                ivar = _injective_dim_var(da, a, model)
                if (
                    pinned
                    and ivar is not None
                    and _injective_dim_var(db, b, model) == ivar
                ):
                    # Injective map of a distributed variable: same iteration
                    # or provably distinct elements.
                    return _PairVerdict(
                        False,
                        "DRD-INJECTIVE-INDEX",
                        "index array is an injective map",
                    )

            if not fa.is_affine or not fb.is_affine:
                any_opaque = True
                continue

            if fa.is_constant and fb.is_constant:
                if fa.offset != fb.offset:
                    return _PairVerdict(
                        False, "DRD-AFFINE-DISJOINT", "affine subscripts never meet"
                    )
                continue  # always-equal dimension: decided by the others

            if fa.is_constant != fb.is_constant:
                # Some iteration hits the constant element from another
                # iteration's affine access.
                any_cross = True
                continue

            if fa.variable == fb.variable and fa.coeff == fb.coeff:
                distance = dependence_distance(fa, fb)
                if distance is None:
                    return _PairVerdict(
                        False, "DRD-AFFINE-DISJOINT", "affine subscripts never meet"
                    )
                if distance == 0:
                    if pinned and (
                        fa.variable in distributed or fa.variable in linear_both
                    ):
                        pinned_vars.add(fa.variable)
                    else:
                        any_cross = True
                else:
                    any_cross = True
                    if pinned and fa.variable in distributed:
                        carried = distance
                continue

            if fa.variable != fb.variable:
                any_cross = True
                continue

            # Same variable, different coefficients: GCD-style test.
            if not may_overlap(fa, fb, same_iteration_ok=False):
                return _PairVerdict(
                    False, "DRD-AFFINE-DISJOINT", "affine subscripts never meet"
                )
            any_cross = True

        if (
            pinned
            and distributed
            and (
                distributed <= pinned_vars
                or (len(distributed) == 1 and pinned_vars & linear_both)
            )
        ):
            # Every distributed induction variable is pinned at distance 0:
            # any collision forces the same iteration instance, executed
            # sequentially by one thread.
            return _PairVerdict(
                False, "DRD-SAME-ITERATION", "both run in the same distributed iteration"
            )

        if (a.context.simd_only or b.context.simd_only) and carried is not None:
            safelen = a.context.safelen or b.context.safelen
            if safelen is not None and abs(carried) >= safelen:
                return _PairVerdict(
                    False,
                    "DRD-SAFELEN-COVERED",
                    "dependence distance at least safelen",
                )
            return _PairVerdict(
                True,
                "DRD-SIMD-LANE",
                "simd lanes carry a dependence shorter than the safelen window",
            )

        if any_cross or any_opaque or not pinned_vars:
            if any_opaque:
                return _PairVerdict(
                    True,
                    "DRD-SUBSCRIPT-OPAQUE",
                    "non-affine subscript may collide across threads",
                )
            return _PairVerdict(True, *self._race_rule(a, b, scalar=False))

        return _PairVerdict(
            False, "DRD-SAME-ITERATION", "both run in the same distributed iteration"
        )

    def _race_rule(
        self, a: AccessSite, b: AccessSite, *, scalar: bool
    ) -> Tuple[str, str]:
        """Pick the reporting rule for a confirmed conflicting pair."""
        if a.context.in_task or b.context.in_task:
            return "DRD-TASK-UNORDERED", "task accesses unordered with a sibling access"
        if a.context.in_section or b.context.in_section:
            return (
                "DRD-SECTION-OVERLAP",
                "accesses in different sections may touch the same element",
            )
        if a.context.simd_only and b.context.simd_only and not scalar:
            return (
                "DRD-SIMD-LANE",
                "simd lanes carry a dependence shorter than the safelen window",
            )
        if scalar:
            return (
                "DRD-SHARED-SCALAR",
                "conflicting unsynchronized accesses to a shared scalar",
            )
        if a.is_write and b.is_write:
            return "DRD-WRITE-WRITE", "the same element may be written by several threads"
        return (
            "DRD-LOOP-CARRIED",
            "loop-carried array dependence across concurrent iterations",
        )

    # -- single-site write/write test ---------------------------------------------

    def _self_conflict(
        self, site: AccessSite, model: AccessModel
    ) -> Optional[_PairVerdict]:
        """A single syntactic write executed by several concurrent instances
        conflicts with itself (write/write race) unless every dynamic
        instance provably targets a different element or runs in one thread.

        Returns ``None`` when the site is not a candidate at all (reads,
        protected or single-thread accesses)."""
        ctx = site.context
        if not site.is_write:
            return None
        if ctx.is_protected or ctx.in_ordered:
            return None
        if ctx.in_task:
            region = model.regions.get(ctx.region_index)
            task = region.tasks.get(ctx.task_id) if region is not None else None
            if task is None or not task.multiple:
                return None
        elif ctx.in_single or ctx.in_master or ctx.in_section:
            return None

        if site.subscript is None:
            return _PairVerdict(
                True,
                "DRD-WRITE-WRITE",
                "the same element may be written by several threads",
            )

        region = model.regions.get(ctx.region_index)
        distributed = set(ctx.distributed_vars)
        linear = set(ctx.linear_vars)
        covered: Set[str] = set()
        used_injective = False
        linear_covered = False
        for dim in site.subscript.split(","):
            if _ticket_dim(dim, region):
                return _PairVerdict(
                    False, "DRD-TICKET-UNIQUE", "atomic capture hands out unique indices"
                )
            ivar = _injective_dim_var(dim, site, model)
            if ivar is not None:
                covered.add(ivar)
                used_injective = True
                continue
            form = _normalize_dim(dim, site, model.constants)
            if form.is_affine and form.variable is not None and form.coeff != 0:
                if form.variable in distributed:
                    covered.add(form.variable)
                elif form.variable in linear:
                    # A linear-clause variable enumerates iterations
                    # bijectively, so it separates a 1-D iteration space.
                    linear_covered = True

        if distributed and (
            distributed <= covered
            or (len(distributed) == 1 and linear_covered)
        ):
            # The subscript tuple is injective over every distributed
            # induction variable: concurrent instances write distinct
            # elements.  Credit the value-flow assumption when an injective
            # index array carried the proof, so the report confidence
            # reflects it.
            if used_injective:
                return _PairVerdict(
                    False, "DRD-INJECTIVE-INDEX", "index array is an injective map"
                )
            return _PairVerdict(
                False, "DRD-DISTRIBUTED-WRITE", "distributed subscript separates writes"
            )
        return _PairVerdict(
            True,
            "DRD-WRITE-WRITE",
            "the same element may be written by several threads",
        )
