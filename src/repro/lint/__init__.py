"""Dependency-free static analysis for the repro codebase.

``repro.lint`` enforces, at the AST level, the conventions the training
engine's correctness guarantees rest on (see ``README.md`` "Static analysis &
sanitizers" for the rule table):

========  ==================================================================
Rule      Invariant
========  ==================================================================
RNG001    no global ``np.random.*`` / stdlib ``random`` — RNG flows in as a
          ``numpy.random.Generator``
CLK001    wall-clock reads live only in ``repro.obs.clock``
TRN001    ``backward()`` / ``optimizer.step()`` live only in ``repro.nn``
          and ``repro.train.engine`` — objectives run on the shared
          ``Trainer``
TEN001    no raw ``Tensor.data`` subscripting / assignment outside
          ``repro.nn`` (and ``repro.train.checkpoint``)
EVL001    public ``predict`` / ``evaluate*`` / ``rank*`` on module-like
          classes must enter ``eval_mode`` / ``no_grad``
EVL002    no bare ``.eval()`` calls — use the mode-restoring ``eval_mode``
DEF001    no mutable default arguments
EXC001    no bare ``except:``
API002    no function parameters typed ``List[Table]`` / ``Sequence[Table]``
          — corpus-shaped inputs accept ``repro.data.Dataset`` (or
          ``Iterable[Table]``) so sharded corpora stream without
          materializing
OBS002    span / metric names are lowercase ``[a-z0-9_]`` segments joined
          by ``/`` or ``.`` (``area/verb``, ``serve.latency.<task>``)
LNT000    every ``# lint: disable=RULE(...)`` suppression carries a reason
========  ==================================================================

Violations can be whitelisted inline with ``# lint: disable=RULE(reason)``;
the report counts every suppression and requires a written reason.

Usage::

    python -m repro.lint src tests            # exit 0 when clean
    python -m repro.lint --list-rules
    python -m repro.lint --invariants src     # also run runtime invariants
"""

from repro.lint.engine import (
    LintResult,
    SuppressedViolation,
    lint_paths,
    lint_source,
)
from repro.lint.invariants import run_invariant_checks
from repro.lint.report import format_json, format_text
from repro.lint.rules import RULES, Rule, Violation

__all__ = [
    "RULES",
    "Rule",
    "Violation",
    "LintResult",
    "SuppressedViolation",
    "lint_paths",
    "lint_source",
    "format_text",
    "format_json",
    "run_invariant_checks",
]
