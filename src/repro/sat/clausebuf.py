"""The bulk clause format shared by the encoder, the builders and both cores.

A *clause buffer* is a C-contiguous ``array('i')`` of length-prefixed
clauses, ``[n, l1 .. ln, n, ...]``.  Clauses travel from the QMR encoder to
the SAT core one buffer per batch instead of one Python call per clause;
pickled solvers and the cross-check log use the same format.  Length
prefixes (not zero terminators) keep ``0`` an invalid literal: a stray 0
is rejected instead of silently splitting a clause in two.

A buffer is valid when every length prefix is at least 1 and ends inside
the buffer, and every literal is non-zero with ``|literal| <= LIT_LIMIT``.
Consumers validate the whole buffer before ingesting any of it, so a
malformed buffer leaves them unchanged:

* the wrong item type (not 1-D int32) raises :class:`TypeError`;
* a non-positive length prefix, a truncated clause or a 0 literal raise
  :class:`ValueError`;
* an out-of-range literal raises :class:`OverflowError`.
"""

from __future__ import annotations

from array import array

from repro.sat._native import load_core

#: Largest accepted ``|literal|`` (the native core's ``INT_MAX / 2``).
LIT_LIMIT = (2 ** 31 - 1) // 2


def pack(clauses) -> array:
    """Pack an iterable of literal lists into one clause buffer."""
    words = array("i")
    for clause in clauses:
        words.append(len(clause))
        words.extend(clause)
    return words


def decode(buf) -> list[list[int]]:
    """Validate ``buf`` and return its clauses as lists of literals."""
    words = _words(buf)
    clauses: list[list[int]] = []
    total = len(words)
    index = 0
    while index < total:
        size = words[index]
        if size < 1:
            raise ValueError(f"clauses must be non-empty (length prefix {size} "
                             f"at word {index})")
        end = index + 1 + size
        if end > total:
            raise ValueError(f"clause buffer truncated: length prefix {size} at "
                             f"word {index} runs past the end ({total} words)")
        clause = words[index + 1:end]
        if 0 in clause:
            raise ValueError("0 is not a valid literal")
        if max(clause) > LIT_LIMIT or min(clause) < -LIT_LIMIT:
            raise OverflowError("literal out of range")
        clauses.append(clause)
        index = end
    return clauses


def scan(buf) -> tuple[int, int]:
    """Validate ``buf``; return ``(number of clauses, largest variable)``.

    Runs in the compiled core when it is available, so validating an
    encoder batch costs no Python work per clause.
    """
    core = load_core()
    if core is not None:
        return core.scan_clause_buffer(buf)
    clauses = decode(buf)
    return len(clauses), max((max(map(abs, clause)) for clause in clauses),
                             default=0)


def _words(buf) -> list[int]:
    try:
        view = memoryview(buf)
    except TypeError:
        raise TypeError("a bytes-like object is required, not "
                        f"'{type(buf).__name__}'") from None
    with view:
        fmt = view.format.lstrip("@")
        if view.ndim != 1 or view.itemsize != 4 or fmt != "i":
            raise TypeError("clause buffer must hold int32 items (array('i')), "
                            f"got format '{fmt}' with item size {view.itemsize}")
        if not view.c_contiguous:
            raise BufferError("clause buffer is not C-contiguous")
        return view.tolist()


__all__ = ["LIT_LIMIT", "decode", "pack", "scan"]
