"""Cross-rank reduction of timing trees.

waLBerla reduces each rank's ``TimingTree`` over the whole communicator so
that a 262,144-core run yields *one* per-functor breakdown with min / avg
/ max over ranks.  Here the per-rank trees travel through the same
pairwise log2(P) schedule the mesh-output pipeline uses
(:func:`repro.simmpi.reduce_tree.run_pairwise_reduction`), so the
reduction itself exercises the paper's communication structure.

A **reduced tree** is a plain nested dict; every node carries:

``count``
    total completed calls over all ranks,
``total``
    summed wall seconds over all ranks,
``call_min`` / ``call_max``
    extremal single-call durations anywhere,
``rank_min`` / ``rank_max`` / ``rank_avg``
    extremal / mean *per-rank totals* — the load-imbalance readout,
``n_ranks``
    ranks that contributed the scope,
``children``
    nested sub-scopes.
"""

from __future__ import annotations

from functools import reduce as _functools_reduce

from repro.simmpi.reduce_tree import run_pairwise_reduction

__all__ = [
    "as_reduced",
    "merge_reduced",
    "merge_rank_trees",
    "reduce_tree_over_ranks",
]

#: Message tag of the timing-tree reduction rounds.
_TAG_TIMING = -202


def as_reduced(tree_dict: dict) -> dict:
    """Convert one rank's ``TimingTree.to_dict()`` into a reduced node."""
    count = int(tree_dict.get("count", 0))
    total = float(tree_dict.get("total", 0.0))
    return {
        "name": tree_dict.get("name", ""),
        "count": count,
        "total": total,
        "call_min": float(tree_dict.get("min", 0.0)),
        "call_max": float(tree_dict.get("max", 0.0)),
        "rank_min": total,
        "rank_max": total,
        "rank_avg": total,
        "n_ranks": 1,
        "children": {
            k: as_reduced(v)
            for k, v in tree_dict.get("children", {}).items()
        },
    }


def merge_reduced(a: dict, b: dict) -> dict:
    """Combine two reduced nodes from *different* ranks (associative)."""
    n_ranks = a["n_ranks"] + b["n_ranks"]
    rank_total = a["rank_avg"] * a["n_ranks"] + b["rank_avg"] * b["n_ranks"]
    out = {
        "name": a["name"] or b["name"],
        "count": a["count"] + b["count"],
        "total": a["total"] + b["total"],
        "call_min": min(a["call_min"], b["call_min"])
        if a["count"] and b["count"]
        else (a["call_min"] if a["count"] else b["call_min"]),
        "call_max": max(a["call_max"], b["call_max"]),
        "rank_min": min(a["rank_min"], b["rank_min"]),
        "rank_max": max(a["rank_max"], b["rank_max"]),
        "rank_avg": rank_total / n_ranks if n_ranks else 0.0,
        "n_ranks": n_ranks,
        "children": {},
    }
    names = list(a["children"]) + [
        k for k in b["children"] if k not in a["children"]
    ]
    for name in names:
        ca, cb = a["children"].get(name), b["children"].get(name)
        if ca is None:
            out["children"][name] = cb
        elif cb is None:
            out["children"][name] = ca
        else:
            out["children"][name] = merge_reduced(ca, cb)
    return out


def merge_rank_trees(tree_dicts: list[dict]) -> dict:
    """Serially reduce a list of per-rank ``TimingTree.to_dict()`` dumps."""
    if not tree_dicts:
        raise ValueError("need at least one tree")
    return _functools_reduce(merge_reduced, (as_reduced(t) for t in tree_dicts))


def reduce_tree_over_ranks(comm, tree, *, tag: int = _TAG_TIMING) -> dict | None:
    """Reduce every rank's *tree* to one merged breakdown on rank 0.

    *tree* is a :class:`~repro.telemetry.timing.TimingTree` or an
    equivalent ``to_dict()`` dump.  Runs the pairwise log2(P) schedule of
    :mod:`repro.simmpi.reduce_tree`; returns the reduced dict on rank 0
    and ``None`` on every other rank.
    """
    tree_dict = tree.to_dict() if hasattr(tree, "to_dict") else tree
    return run_pairwise_reduction(
        comm, as_reduced(tree_dict), merge_reduced, tag=tag
    )
