"""Tuning parameter spaces with constraint elimination.

Step one of the paper's autotuning recipe: "we parametrize every kernel
as far as possible ... Second, we set up a range of values for the
parameters we want to tune. Artificial values, like those exceeding the
shared memory, will be eliminated."

The space is declared once, in the `tune_params` + `restrictions` idiom
of kernel_tuner: named ranges form the cartesian product, restriction
predicates eliminate infeasible points, and the surviving set feeds the
pluggable search strategies in `repro.tuning.search`. A declaration
whose restrictions eliminate *everything* raises the typed
`EmptyParamSpaceError` — that is a mistake in the declaration, not a
runtime condition to search around.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable

from repro.errors import ConfigError, EmptyParamSpaceError

__all__ = ["ParamSpace"]


class ParamSpace:
    """Cartesian product of named parameter ranges with constraints.

    Restrictions can be given at construction (`restrictions=`) or added
    later with `constrain()`; both are conjunctive predicates over a
    candidate dict, so their order never changes the feasible set — a
    point survives iff every predicate accepts it.
    """

    def __init__(
        self,
        restrictions: Iterable[Callable[[dict], bool]] = (),
        **ranges: Iterable,
    ):
        if not ranges:
            raise ConfigError("need at least one parameter")
        self.ranges = {k: list(v) for k, v in ranges.items()}
        for k, v in self.ranges.items():
            if not v:
                raise ConfigError(f"parameter '{k}' has an empty range")
        self._constraints: list[Callable[[dict], bool]] = list(restrictions)
        self._feasible: list[dict] | None = None

    def constrain(self, predicate: Callable[[dict], bool]) -> "ParamSpace":
        """Add a feasibility predicate; infeasible points are eliminated."""
        self._constraints.append(predicate)
        self._feasible = None  # previously-enumerated set is stale
        return self

    def candidates(self) -> list[dict]:
        """All feasible parameter combinations (enumerated once, cached)."""
        if self._feasible is None:
            keys = list(self.ranges)
            out = []
            for values in product(*(self.ranges[k] for k in keys)):
                cand = dict(zip(keys, values))
                if all(pred(cand) for pred in self._constraints):
                    out.append(cand)
            self._feasible = out
        return list(self._feasible)

    def contains(self, cand: dict) -> bool:
        """Whether `cand` is a feasible point, tested without enumerating."""
        return cand.keys() == self.ranges.keys() and all(
            cand[k] in v for k, v in self.ranges.items()
        ) and all(pred(cand) for pred in self._constraints)

    def feasible(self) -> list[dict]:
        """The feasible set, guaranteed non-empty.

        Raises the typed `EmptyParamSpaceError` when the restrictions
        eliminated every point — the search strategies call this so a
        broken declaration fails loudly before any campaign starts.
        """
        cands = self.candidates()
        if not cands:
            raise EmptyParamSpaceError(
                f"restrictions eliminated all {self.raw_size} candidates "
                f"of the parameter space over {list(self.ranges)}"
            )
        return cands

    @property
    def raw_size(self) -> int:
        n = 1
        for v in self.ranges.values():
            n *= len(v)
        return n

    def eliminated_count(self) -> int:
        return self.raw_size - len(self.candidates())
