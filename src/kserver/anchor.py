"""The anchor: a stabilizing suffix of round-robin requests.

Appending enough cycles over the start configuration forces both the
offline optimum and any competitive lazy online algorithm back to where
they started, which makes repetitions of the combined block behave as
independent runs.  The cycle count is computed with exact integer
arithmetic from the base sequence's optimal cost, the assumed competitive
ratio and the assumed additive allowance.  The caller passes the optimum,
so this module is pure arithmetic: it folds no work vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metric import InputError, Instance, check_integer, check_work_bound, min_pairwise_distance


@dataclass(frozen=True)
class AnchorSpec:
    """Anchor parameters and the concrete request suffix.

    ``min_gap`` is the smallest distance between two distinct start points;
    ``cycles`` the number of round-robin passes; ``requests`` the suffix
    itself (start points in ascending order, repeated ``cycles`` times).
    """

    min_gap: int
    cycles: int
    requests: tuple[int, ...]


def _ceil_div(numerator: int, denominator: int) -> int:
    return -(-numerator // denominator)


def compute_anchor(inst: Instance, opt: int, alpha: int, beta: int) -> AnchorSpec:
    """Build the anchor for an instance whose base sequence has optimal cost
    ``opt``, under assumed ratio and allowance.

    The cycle count is one more than the exact ceiling of the larger of
    ``2*k*opt/gap + k^2`` and ``(2*alpha*opt + beta)/gap``, which makes
    both guarantees below strict.
    """
    check_integer("opt", opt, 0)
    check_integer("alpha", alpha, 1)
    check_integer("beta", beta, 0)
    if inst.k < 2:
        raise InputError("anchors need k >= 2 (no pairwise gap with one server)")
    gap = min_pairwise_distance(inst.initial, inst.metric)
    k = inst.k
    cycles = (
        max(
            _ceil_div(2 * k * opt, gap) + k * k,
            _ceil_div(2 * alpha * opt + beta, gap),
        )
        + 1
    )
    if not (cycles * gap > 2 * alpha * opt + beta):
        raise RuntimeError("cycle count fails its ratio guarantee")
    if not (cycles * gap > 2 * k * opt + k * k * gap):
        raise RuntimeError("cycle count fails its return guarantee")
    # the anchored instance's bound, refused before its requests are built
    check_work_bound(inst.metric, k, len(inst.requests) + k * cycles)
    return AnchorSpec(gap, cycles, inst.initial * cycles)
