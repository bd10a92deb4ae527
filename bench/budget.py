"""Per-input work budget: a limit that ends the same inputs on every run.

A wall-clock limit decides an input whose time sits near it differently
from run to run, as the machine's speed changes; on the verify workloads
that changed how many inputs failed between two runs of the same seed.  So
each verify input runs under a budget of work units instead, counted at
fixed points of rowlab:

* one unit per call of a layer function, at the names tracing.LAYERS wraps
  (a function that calls itself through its own name counts its outermost
  call only);
* one unit per call of the term generator's ``_Gen.term_for``, recursion
  included, where generation spends its time;
* one unit per CHARS_PER_UNIT characters that ``show_term`` and
  ``show_type`` return, which grow with the terms a search or a generator
  handles;
* one unit per node of the term ``step_all`` is given and of the term
  ``run_translation`` returns.  A single call on a large term (a
  translation can multiply a term's size) can take seconds, so these are
  charged before the work the term causes: ``step_all`` refuses a term
  larger than what is left, and a translated term that large ends the
  input before it is checked or stepped.  Sizes are only taken while a
  budget is set, so eval-scale's deep terms are never walked for it.

The same inputs and the same rowlab code spend the same units, so an input
either always or never runs out.  A unit takes about 14 us on verify-search
and 5 us on verify-sweep on the machine the budgets were set on
(bench/NOTES.md), so both verify budgets stand for about 0.1 s.  Running
out raises ``Exhausted`` from the wrapper, a BaseException so that no
rowlab handler catches it.
"""

from __future__ import annotations

import math

CHARS_PER_UNIT = 16
SHOWN = ("show_term", "show_type")  # charged by the text they return
SIZED_INPUT = ("step_all",)  # charged by the size of the term they get
SIZED_OUTPUT = ("run_translation",)  # charged by the size of the term they make


class Exhausted(BaseException):
    """The input spent its budget."""


left = math.inf


def start(units: float) -> None:
    """Give the next input ``units`` to spend (``math.inf``: no budget)."""
    global left
    left = units


def _spend(units: int) -> None:
    global left
    left -= units
    if left < 0:
        raise Exhausted


def counted(fn):
    """``fn``, charging each call, and the size of what it handles, to the
    budget."""
    from rowlab.harness import term_size

    name = fn.__name__

    def charged(*args, **kwargs):
        _spend(1)
        if name in SIZED_INPUT and left != math.inf:
            _spend(term_size(args[0]))
        out = fn(*args, **kwargs)
        if name in SHOWN:
            _spend(len(out) // CHARS_PER_UNIT)
        elif name in SIZED_OUTPUT and left != math.inf:
            _spend(term_size(out))
        return out

    charged.__wrapped__ = fn
    charged.__name__ = name
    return charged


def install(tracer=None) -> None:
    """Count every layer function and the term generator; with ``tracer``,
    each layer call is also a span."""
    import tracing
    from rowlab import harness

    if tracer is None:
        tracing.install(lambda layer, fn: counted(fn))
    else:
        tracing.install(lambda layer, fn: tracer.wrap(layer, counted(fn)))
    harness._Gen.term_for = counted(harness._Gen.term_for)
