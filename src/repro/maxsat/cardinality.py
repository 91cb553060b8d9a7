"""Cardinality and pseudo-Boolean encodings for the MaxSAT bound.

Two encoders are provided:

* :class:`Totalizer` -- the classic totalizer encoding for unweighted
  cardinality constraints ("at most k of these literals are true").
* :class:`GeneralizedTotalizer` -- the weighted generalisation (GTE), where
  each input literal carries a positive integer weight and the outputs encode
  "the total weight of true inputs is at least w".

Both are built once and strengthened monotonically by asserting unit clauses
on output literals, which is how the linear-search MaxSAT strategy tightens
its bound between SAT calls.

The paper's "only one swap" constraint (Hard C) also uses a standard
at-most-one encoding, provided here as :func:`at_most_one_pairwise`,
:func:`at_most_one_commander` and :func:`exactly_one`.  These helpers are
shared by the QMR encoder, :mod:`repro.maxsat.encodings` and the Fu-Malik
strategy; they append to a caller's clause batch or hand the builder one
batch of their own, never one call per clause.
"""

from __future__ import annotations

from array import array

from repro.maxsat.wcnf import WcnfBuilder


def at_most_one_pairwise(builder: WcnfBuilder, literals: list[int],
                         clauses: list[int] | None = None) -> None:
    """Add pairwise at-most-one hard constraints over ``literals``.

    Like every helper in this module that takes ``clauses``: when given, the
    clauses are appended to that word list in clause-buffer layout
    (``[n, l1 .. ln, ...]``, see :mod:`repro.sat.clausebuf`) and the caller
    hands the whole batch to the builder later; when omitted, they go to
    ``builder`` as one batch right away.
    """
    words = [] if clauses is None else clauses
    negated = [-literal for literal in literals]
    for index, first in enumerate(negated, 1):
        for second in negated[index:]:
            words += (2, first, second)
    if clauses is None:
        builder.add_clause_buffer(array("i", words))


def at_least_one(builder: WcnfBuilder, literals: list[int],
                 clauses: list[int] | None = None) -> None:
    """Add an at-least-one hard constraint over ``literals``."""
    words = [] if clauses is None else clauses
    words.append(len(literals))
    words += literals
    if clauses is None:
        builder.add_clause_buffer(array("i", words))


def exactly_one(builder: WcnfBuilder, literals: list[int],
                clauses: list[int] | None = None) -> None:
    """Add an exactly-one hard constraint (pairwise AMO + ALO)."""
    words = [] if clauses is None else clauses
    at_least_one(builder, literals, words)
    at_most_one_pairwise(builder, literals, words)
    if clauses is None:
        builder.add_clause_buffer(array("i", words))


def at_most_one_commander(
    builder: WcnfBuilder, literals: list[int], group_size: int = 4,
    clauses: list[int] | None = None,
) -> None:
    """Commander (hierarchical) at-most-one encoding.

    Linear in the number of literals, which matters for the larger "only one"
    constraints the QMR encoding produces on well-connected architectures.
    Commander variables are allocated from ``builder`` as the groups are
    encoded, so variable numbering does not depend on ``clauses``.
    """
    words = [] if clauses is None else clauses
    if len(literals) <= group_size + 1:
        at_most_one_pairwise(builder, literals, words)
    else:
        commanders: list[int] = []
        for start in range(0, len(literals), group_size):
            group = literals[start:start + group_size]
            commander = builder.new_var()
            commanders.append(commander)
            at_most_one_pairwise(builder, group, words)
            # The commander is true iff some literal in its group is true.
            for literal in group:
                words += (2, -literal, commander)
            words += (len(group) + 1, -commander)
            words += group
        at_most_one_commander(builder, commanders, group_size, words)
    if clauses is None:
        builder.add_clause_buffer(array("i", words))


class Totalizer:
    """Totalizer encoding over a set of input literals.

    After construction, ``outputs[j]`` (0-based) is a literal that is true in
    every model in which at least ``j + 1`` of the inputs are true.  Asserting
    ``-outputs[k]`` therefore enforces "at most k inputs are true".
    """

    def __init__(self, builder: WcnfBuilder, inputs: list[int]) -> None:
        self.builder = builder
        self.inputs = list(inputs)
        if not inputs:
            self.outputs: list[int] = []
            return
        words: list[int] = []
        self.outputs = self._build(list(inputs), words)
        builder.add_clause_buffer(array("i", words))

    def _build(self, literals: list[int], words: list[int]) -> list[int]:
        if len(literals) == 1:
            return [literals[0]]
        mid = len(literals) // 2
        left = self._build(literals[:mid], words)
        right = self._build(literals[mid:], words)
        return self._merge(left, right, words)

    def _merge(self, left: list[int], right: list[int],
               words: list[int]) -> list[int]:
        builder = self.builder
        total = len(left) + len(right)
        outputs = [builder.new_var() for _ in range(total)]
        # sum(left) >= a and sum(right) >= b  implies  sum >= a + b
        for a in range(len(left) + 1):
            for b in range(len(right) + 1):
                if a + b == 0:
                    continue
                antecedent = []
                if a > 0:
                    antecedent.append(-left[a - 1])
                if b > 0:
                    antecedent.append(-right[b - 1])
                words.append(len(antecedent) + 1)
                words += antecedent
                words.append(outputs[a + b - 1])
        # Monotonicity: outputs[j] implies outputs[j-1].
        for j in range(1, total):
            words += (2, -outputs[j], outputs[j - 1])
        return outputs

    def enforce_at_most(self, bound: int) -> None:
        """Permanently assert that at most ``bound`` inputs are true."""
        if bound < 0:
            raise ValueError("bound must be non-negative")
        if bound >= len(self.outputs):
            return
        self.builder.add_hard([-self.outputs[bound]])

    def assumption_for_at_most(self, bound: int) -> list[int]:
        """Assumption literals enforcing "at most ``bound``" non-permanently."""
        if bound < 0:
            raise ValueError("bound must be non-negative")
        if bound >= len(self.outputs):
            return []
        return [-self.outputs[bound]]


class GeneralizedTotalizer:
    """Generalised totalizer (GTE) over weighted input literals.

    ``outputs`` maps each achievable total weight ``w`` (> 0) to a literal that
    is true whenever the total weight of true inputs is at least ``w``.
    """

    def __init__(self, builder: WcnfBuilder, weighted_inputs: list[tuple[int, int]]) -> None:
        self.builder = builder
        self.weighted_inputs = list(weighted_inputs)
        for literal, weight in self.weighted_inputs:
            if weight <= 0:
                raise ValueError(f"weights must be positive, got {weight} for {literal}")
        if not self.weighted_inputs:
            self.outputs: dict[int, int] = {}
            return
        words: list[int] = []
        self.outputs = self._build(self.weighted_inputs, words)
        builder.add_clause_buffer(array("i", words))

    def _build(self, pairs: list[tuple[int, int]],
               words: list[int]) -> dict[int, int]:
        if len(pairs) == 1:
            literal, weight = pairs[0]
            return {weight: literal}
        mid = len(pairs) // 2
        left = self._build(pairs[:mid], words)
        right = self._build(pairs[mid:], words)
        return self._merge(left, right, words)

    def _merge(self, left: dict[int, int], right: dict[int, int],
               words: list[int]) -> dict[int, int]:
        builder = self.builder
        sums: set[int] = set(left) | set(right)
        for left_weight in left:
            for right_weight in right:
                sums.add(left_weight + right_weight)
        outputs = {weight: builder.new_var() for weight in sorted(sums)}
        for left_weight, left_literal in left.items():
            words += (2, -left_literal, outputs[left_weight])
        for right_weight, right_literal in right.items():
            words += (2, -right_literal, outputs[right_weight])
        for left_weight, left_literal in left.items():
            for right_weight, right_literal in right.items():
                combined = left_weight + right_weight
                words += (3, -left_literal, -right_literal, outputs[combined])
        # Monotonicity between consecutive achievable sums.
        ordered = sorted(outputs)
        for lower, upper in zip(ordered, ordered[1:]):
            words += (2, -outputs[upper], outputs[lower])
        return outputs

    def enforce_weight_less_than(self, bound: int) -> None:
        """Permanently assert that the total weight of true inputs is < ``bound``."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        for weight in sorted(self.outputs):
            if weight >= bound:
                self.builder.add_hard([-self.outputs[weight]])
                return  # monotonicity clauses handle the larger weights

    def assumptions_for_weight_less_than(self, bound: int) -> list[int]:
        """Assumption literals enforcing "total weight < ``bound``" non-permanently.

        Incremental sessions use this instead of
        :meth:`enforce_weight_less_than`: the bound holds only for the solve
        call that assumes it, so a later call on the same live solver can
        start from a clean (or different) bound.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        for weight in sorted(self.outputs):
            if weight >= bound:
                # Monotonicity clauses imply the larger weights stay false.
                return [-self.outputs[weight]]
        return []
