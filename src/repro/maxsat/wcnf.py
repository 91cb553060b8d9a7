"""Weighted partial CNF construction helpers.

:class:`WcnfBuilder` is the object the SATMAP encoder populates: it owns the
variable counter, the hard clauses, and the weighted soft clauses, and it can
be converted to the DIMACS containers in :mod:`repro.sat.dimacs`.

Hard clauses are stored as one clause buffer -- a length-prefixed
``array('i')``, see :mod:`repro.sat.clausebuf` -- plus a clause count.
:meth:`WcnfBuilder.add_clause_buffer` appends a whole batch in one call and
is how the encoder adds its clauses; :meth:`WcnfBuilder.add_hard` is the
one-clause convenience over it.  :attr:`WcnfBuilder.hard` decodes the
buffer into lists for export and tests; solvers load
:meth:`WcnfBuilder.hard_buffer` instead, in one call.

The builder is itself a :class:`repro.sat.session.ClauseSink`, and it can be
*attached* to another sink -- typically a live
:class:`~repro.sat.session.SatSession`.  While attached, every batch of hard
clauses is forwarded to the session as soon as it is added, so the MaxSAT
strategies never replay the formula into a fresh solver: by the time a
strategy runs, the session already holds it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.sat import clausebuf
from repro.sat.dimacs import WcnfFormula


@dataclass
class SoftClause:
    """A soft clause with a positive integer weight."""

    literals: list[int]
    weight: int = 1


@dataclass
class WcnfBuilder:
    """Incrementally built weighted partial MaxSAT instance."""

    num_vars: int = 0
    soft: list[SoftClause] = field(default_factory=list)
    #: Hard clauses as one length-prefixed clause buffer.
    _hard: array = field(default_factory=lambda: array("i"), repr=False)
    _num_hard: int = 0
    #: Attached streaming sink (a ``SatSession`` in practice); ``None`` keeps
    #: the builder a plain in-memory container.
    _sink: object | None = field(default=None, repr=False, compare=False)
    #: Words of ``_hard`` already forwarded to the sink.
    _streamed: int = field(default=0, repr=False, compare=False)
    #: The sink generation last streamed to; a mismatch (session reset)
    #: restarts streaming from the first clause.
    _sink_generation: int = field(default=0, repr=False, compare=False)

    def new_var(self) -> int:
        """Allocate a fresh Boolean variable and return its index."""
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> list[int]:
        """Allocate ``count`` fresh variables."""
        return [self.new_var() for _ in range(count)]

    def add_clause_buffer(self, buf) -> None:
        """Add a batch of hard clauses given as one clause buffer.

        The whole buffer is validated first (a malformed one raises and adds
        nothing); variables it mentions beyond ``num_vars`` are claimed.
        With a sink attached the batch is forwarded in the same call.
        """
        count, max_var = clausebuf.scan(buf)
        if max_var > self.num_vars:
            self.num_vars = max_var
        if count:
            self._hard.extend(buf)
            self._num_hard += count
            self.sync_sink()

    def add_hard(self, clause: list[int]) -> None:
        """Add one hard clause (must be satisfied by every solution)."""
        self.add_clause_buffer(clausebuf.pack([clause]))

    def add_soft(self, clause: list[int], weight: int = 1) -> None:
        """Add a soft clause with the given positive integer weight."""
        if weight <= 0:
            raise ValueError(f"soft clause weight must be positive, got {weight}")
        _, max_var = clausebuf.scan(clausebuf.pack([clause]))
        if max_var > self.num_vars:
            self.num_vars = max_var
        self.soft.append(SoftClause(list(clause), weight))

    # ------------------------------------------------------------ streaming

    @property
    def sink(self) -> object | None:
        """The attached streaming sink, if any."""
        return self._sink

    def attach_sink(self, sink) -> None:
        """Forward hard clauses into ``sink`` as they are added.

        Clauses already in the builder are forwarded immediately (exactly
        once); afterwards every batch is forwarded as soon as it is added.
        Attaching a *different* sink restarts streaming from the first
        clause for that sink.
        """
        if sink is self._sink:
            self.sync_sink()
            return
        self._sink = sink
        self._streamed = 0
        self._sink_generation = getattr(sink, "generation", 0)
        self.sync_sink()

    def detach_sink(self) -> None:
        """Stop streaming; the builder reverts to a plain container."""
        self._sink = None
        self._streamed = 0
        self._sink_generation = 0

    def sync_sink(self) -> None:
        """Forward, in one batch, the hard clauses the sink has not seen yet.

        A sink whose ``generation`` changed (a reset session) is treated as
        empty and re-fed the whole formula.
        """
        sink = self._sink
        if sink is None:
            return
        generation = getattr(sink, "generation", 0)
        if generation != self._sink_generation:
            self._streamed = 0
            self._sink_generation = generation
        sink.ensure_vars(self.num_vars)
        if self._streamed < len(self._hard):
            sink.add_clause_buffer(self.hard_buffer(self._streamed))
            self._streamed = len(self._hard)

    # -------------------------------------------------------------- queries

    @property
    def total_soft_weight(self) -> int:
        return sum(soft.weight for soft in self.soft)

    @property
    def num_hard(self) -> int:
        return self._num_hard

    @property
    def hard(self) -> list[list[int]]:
        """The hard clauses decoded into lists (a copy, for export and tests)."""
        return clausebuf.decode(self._hard)

    @property
    def hard_words(self) -> int:
        """Length of the hard-clause buffer in words (an offset for
        :meth:`hard_buffer`)."""
        return len(self._hard)

    def hard_buffer(self, start: int = 0) -> array:
        """A copy of the hard-clause buffer from word offset ``start`` on."""
        return self._hard[start:]

    @property
    def num_soft(self) -> int:
        return len(self.soft)

    def is_weighted(self) -> bool:
        """Return ``True`` if the soft clauses do not all share weight 1."""
        return any(soft.weight != 1 for soft in self.soft)

    def to_dimacs(self) -> WcnfFormula:
        """Convert to the DIMACS WCNF container (for export / debugging)."""
        formula = WcnfFormula(num_vars=self.num_vars)
        for clause in self.hard:
            formula.add_hard(clause)
        for soft in self.soft:
            formula.add_soft(soft.literals, soft.weight)
        return formula

    def cost_of_model(self, model: dict[int, bool]) -> int:
        """Total weight of soft clauses falsified by ``model``."""
        cost = 0
        for soft in self.soft:
            if not clause_satisfied(soft.literals, model):
                cost += soft.weight
        return cost

    def ensure_vars(self, max_var: int) -> None:
        """Grow the variable counter to cover ``max_var`` (ClauseSink API)."""
        if max_var > self.num_vars:
            self.num_vars = max_var


def clause_satisfied(clause: list[int], model: dict[int, bool]) -> bool:
    """Return ``True`` if ``model`` satisfies ``clause`` (missing vars are False)."""
    for literal in clause:
        value = model.get(abs(literal), False)
        if literal > 0 and value:
            return True
        if literal < 0 and not value:
            return True
    return False
