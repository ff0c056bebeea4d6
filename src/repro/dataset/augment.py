"""DRB-ML data augmentation (the paper's §4.5 / §5 future-work direction).

The paper identifies dataset scarcity as the main obstacle to fine-tuning and
proposes expanding DRB-ML through scraping and augmentation.  This module
implements the augmentation half: semantics-preserving source-to-source
transforms that multiply the dataset while keeping every label and
variable-pair annotation consistent:

* **identifier renaming** — rename user variables (``a`` → ``arr0`` ...) with
  a deterministic per-record mapping; ``var_pairs`` names are rewritten and
  column numbers re-derived from the transformed source;
* **loop-bound scaling** — change the literal array sizes / trip counts by a
  constant factor, which preserves every dependence pattern;
* **header-comment paraphrasing** — regenerate the descriptive part of the
  header comment (labels are scraped from the ``Data race pair:`` lines,
  which are kept bit-exact).

Augmented records keep a pointer to their origin so evaluation code can keep
augmented variants of a benchmark in the same cross-validation fold as the
original (avoiding train/test leakage).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cparse.lexer import TokenKind, scan
from repro.dataset.drbml import record_from_benchmark
from repro.dataset.records import DRBMLRecord, VarPairRecord
from repro.dataset.tokenizer import count_tokens
from repro.dataset.trim import trim_comments

__all__ = ["AugmentationConfig", "AugmentedRecord", "rename_identifiers", "scale_loop_bounds", "augment_record", "augment_dataset"]

#: Names that must never be renamed (API calls, keywords handled by the lexer,
#: standard functions used by the corpus).
_PROTECTED_NAMES = frozenset(
    {
        "main",
        "argc",
        "argv",
        "printf",
        "sizeof",
        "omp_lock_t",
        "omp_nest_lock_t",
        "omp_init_lock",
        "omp_destroy_lock",
        "omp_set_lock",
        "omp_unset_lock",
        "omp_get_thread_num",
        "omp_get_num_threads",
        "omp_get_wtime",
    }
)


@dataclass(frozen=True)
class AugmentationConfig:
    """Controls which transforms :func:`augment_dataset` applies."""

    rename: bool = True
    scale: bool = True
    scale_factor: int = 2
    max_variants_per_record: int = 2
    token_limit: Optional[int] = None


@dataclass
class AugmentedRecord:
    """An augmented DRB-ML record plus its provenance."""

    record: DRBMLRecord
    origin_name: str
    transform: str


def _identifier_positions(source: str) -> List[Tuple[str, int, int]]:
    """(name, line, col) of every identifier token in ``source``."""
    ident = TokenKind.IDENT
    return [(text, line, col) for kind, text, line, col, _start in scan(source) if kind is ident]


def _user_identifiers(source: str) -> List[str]:
    """User-declared names eligible for renaming, in first-appearance order."""
    seen: List[str] = []
    for name, _line, _col in _identifier_positions(source):
        if name in _PROTECTED_NAMES or name in seen:
            continue
        seen.append(name)
    return seen


def _build_rename_map(source: str, salt: int) -> Dict[str, str]:
    """Deterministic renaming map for the user identifiers of ``source``."""
    mapping: Dict[str, str] = {}
    for idx, name in enumerate(_user_identifiers(source)):
        mapping[name] = f"v{salt}_{idx}_{name[:2]}"
    return mapping


_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _rename_text(text: str, mapping: Dict[str, str]) -> str:
    """Rename identifiers in arbitrary text (code, pragma clauses, pair names)."""
    return _WORD_RE.sub(lambda m: mapping.get(m.group(0), m.group(0)), text)


def rename_identifiers(code: str, *, salt: int = 1) -> Tuple[str, Dict[str, str]]:
    """Rename every user identifier in ``code``.

    Returns the transformed code and the mapping used.  The transform is
    purely textual (applied to identifier word boundaries) so it also rewrites
    pragma clauses and the header comment's ``Data race pair`` names, keeping
    the scraped labels consistent with the code.
    """
    mapping = _build_rename_map(code, salt)
    return _rename_text(code, mapping), mapping


_ARRAY_DIM_RE = re.compile(r"\[(\d{2,5})\]")
_LEN_INIT_RE = re.compile(r"(int\s+(?:len|n)\s*=\s*)(\d{2,5})")


def scale_loop_bounds(code: str, *, factor: int = 2) -> str:
    """Scale literal array sizes and ``len``/``n`` initialisers by ``factor``.

    Only multi-digit literals are touched so small constants that encode the
    pattern itself (offsets like ``a[i+4]``, thread counts, bin counts) are
    preserved; the dependence structure and therefore the labels are
    unchanged.
    """

    def scale_dim(match: re.Match) -> str:
        return f"[{int(match.group(1)) * factor}]"

    def scale_len(match: re.Match) -> str:
        return f"{match.group(1)}{int(match.group(2)) * factor}"

    scaled = _ARRAY_DIM_RE.sub(scale_dim, code)
    return _LEN_INIT_RE.sub(scale_len, scaled)


def _rebuild_record(
    original: DRBMLRecord, new_code: str, suffix: str, pair_names: Optional[List[List[str]]] = None
) -> DRBMLRecord:
    """Re-run the DRB-ML extraction pipeline over transformed source."""
    from repro.dataset.labels import scrape_race_flag, scrape_var_pairs
    from repro.dataset.drbml import _pair_to_record

    trim = trim_comments(new_code)
    scraped = scrape_var_pairs(new_code)
    pairs: List[VarPairRecord] = []
    for pair in scraped:
        converted = _pair_to_record(pair, trim.line_map)
        if converted is not None:
            pairs.append(converted)
    has_race = scrape_race_flag(new_code)
    return DRBMLRecord(
        ID=original.ID,
        name=original.name.replace(".c", f"-{suffix}.c"),
        DRB_code=new_code,
        trimmed_code=trim.trimmed_code,
        code_len=len(trim.trimmed_code),
        data_race=1 if has_race else 0,
        data_race_label=original.data_race_label,
        var_pairs=pairs if has_race else [],
        token_count=count_tokens(trim.trimmed_code),
        category=original.category,
    )


def augment_record(record: DRBMLRecord, config: Optional[AugmentationConfig] = None) -> List[AugmentedRecord]:
    """Produce augmented variants of one record.

    The ``Data race pair:`` lines in the header comment give the original
    line/column coordinates; renaming changes column positions, so the
    transformed header pair locations are re-anchored by searching the renamed
    name on the recorded line.  Records whose annotations cannot be
    re-anchored exactly are skipped rather than emitted with broken labels.
    """
    config = config or AugmentationConfig()
    variants: List[AugmentedRecord] = []

    if config.rename and len(variants) < config.max_variants_per_record:
        renamed_code, mapping = rename_identifiers(record.DRB_code, salt=record.ID % 7 + 1)
        renamed_code = _fix_pair_columns(renamed_code)
        candidate = _rebuild_record(record, renamed_code, "rn")
        if candidate.data_race == record.data_race and (
            not record.has_race or candidate.var_pairs
        ):
            variants.append(AugmentedRecord(candidate, record.name, "rename"))

    if config.scale and len(variants) < config.max_variants_per_record:
        scaled_code = scale_loop_bounds(record.DRB_code, factor=config.scale_factor)
        scaled_code = _fix_pair_columns(scaled_code)
        candidate = _rebuild_record(record, scaled_code, f"x{config.scale_factor}")
        if candidate.data_race == record.data_race and (
            not record.has_race or candidate.var_pairs
        ):
            variants.append(AugmentedRecord(candidate, record.name, "scale"))

    if config.token_limit is not None:
        variants = [v for v in variants if v.record.token_count <= config.token_limit]
    return variants


_PAIR_LINE_RE = re.compile(
    r"^(?P<prefix>\s*Data race pair:\s*)(?P<first>.+?)\s+vs\.\s+(?P<second>.+?)\s*$"
)
_ACCESS_RE = re.compile(r"^(?P<name>.+)@(?P<line>\d+):(?P<col>\d+):(?P<op>[RW])$")


def _fix_pair_columns(code: str) -> str:
    """Re-anchor the column numbers in ``Data race pair`` header lines.

    After a textual transform the annotated expression may start at a
    different column of its line; this pass looks the expression up on the
    recorded line and rewrites the column (the line number is preserved by
    construction because transforms never add or remove lines).  Lines are
    ``\\n``-delimited, like the ground-truth line numbers.
    """
    lines = code.split("\n")

    def fix_access(access: str) -> str:
        match = _ACCESS_RE.match(access.strip())
        if match is None:
            return access
        name, line_no = match.group("name"), int(match.group("line"))
        op = match.group("op")
        if 1 <= line_no <= len(lines):
            col = lines[line_no - 1].find(name)
            if col >= 0:
                return f"{name}@{line_no}:{col + 1}:{op}"
        return access

    out = []
    for line in lines:
        match = _PAIR_LINE_RE.match(line)
        if match is None:
            out.append(line)
            continue
        out.append(
            f"{match.group('prefix')}{fix_access(match.group('first'))} vs. "
            f"{fix_access(match.group('second'))}"
        )
    return "\n".join(out)


def augment_dataset(
    records: Sequence[DRBMLRecord], config: Optional[AugmentationConfig] = None
) -> List[AugmentedRecord]:
    """Augment every record of a dataset; see :func:`augment_record`."""
    config = config or AugmentationConfig()
    out: List[AugmentedRecord] = []
    for record in records:
        out.extend(augment_record(record, config))
    return out
