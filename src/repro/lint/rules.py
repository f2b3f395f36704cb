"""Repo-specific lint rules as a single AST walk.

Each rule has an ID, a one-line fix hint, and a scope predicate over the
dotted module name (computed from the file path by the engine).  Rules are
deliberately convention-level: they cannot prove correctness, but each one
guards an invariant that a correctness property of the repo rests on — see
the module docstring of :mod:`repro.lint` for the table.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: ``numpy.random`` members that construct independent generators (allowed)
#: as opposed to hitting the hidden global ``RandomState`` (forbidden).
ALLOWED_NP_RANDOM = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}

#: Wall-clock reading callables (dotted names after import resolution).
CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Base-class names that mark a class as "module-like" for EVL001 — it holds
#: trainable state whose train/eval mode matters.
MODULE_LIKE_BASES = {"Module", "Pretrainer"}

#: Method names that are public inference entry points.
EVAL_ENTRY_NAMES = ("predict", "evaluate", "rank")

#: Module-level helpers whose first string argument names a span (OBS002).
OBS_NAME_FUNCTIONS = {"trace", "start_trace"}
#: Method names whose first string argument names a span/metric (OBS002):
#: ``tracer.span`` and the three registry instrument factories.
OBS_NAME_METHODS = {"span", "counter", "gauge", "histogram"}
#: Full-name convention: lowercase ``[a-z0-9_]`` segments joined by "/" or
#: "." — the layout the tracer tree report and Prometheus exporter assume.
OBS_NAME_PATTERN = re.compile(r"^[a-z0-9_]+(?:[./][a-z0-9_]+)*$")
#: What the constant fragments of an f-string name may contain.
OBS_FRAGMENT_PATTERN = re.compile(r"^[a-z0-9_./]*$")


def _is_eval_entry(name: str) -> bool:
    return any(name == entry or name.startswith(entry + "_")
               for entry in EVAL_ENTRY_NAMES)


def _in_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def _outside_clock(module: str) -> bool:
    return _in_repro(module) and module != "repro.obs.clock"


def _outside_nn(module: str) -> bool:
    return _in_repro(module) and not module.startswith("repro.nn")


def _outside_nn_and_checkpoint(module: str) -> bool:
    return _outside_nn(module) and module != "repro.train.checkpoint"


def _outside_nn_and_engine(module: str) -> bool:
    return _outside_nn(module) and module != "repro.train.engine"


def _everywhere(module: str) -> bool:
    return True


@dataclass(frozen=True)
class Rule:
    """One lint rule: identifier, summary, fix hint and module scope."""

    id: str
    name: str
    summary: str
    hint: str
    applies_to: Callable[[str], bool]


RULES: Dict[str, Rule] = {rule.id: rule for rule in [
    Rule("RNG001", "global-rng",
         "global RNG call — randomness must flow in as a Generator",
         "accept a np.random.Generator parameter (or default_rng(seed)) "
         "instead of the process-global RNG",
         _in_repro),
    Rule("CLK001", "wall-clock",
         "wall-clock read outside repro.obs.clock",
         "time regions with repro.obs.trace (or read repro.obs.clock "
         "perf_counter / wall_time) so seeded compute stays clock-free",
         _outside_clock),
    Rule("TRN001", "hand-rolled-training-step",
         "backward()/optimizer.step() outside repro.nn and repro.train.engine",
         "express the objective as a TrainableTask loss (or an extra term "
         "on one) and let repro.train.Trainer run backward, clipping and "
         "the optimizer",
         _outside_nn_and_engine),
    Rule("TEN001", "raw-tensor-data",
         "raw Tensor.data subscript/assignment outside repro.nn",
         "use autograd ops (take_rows, __getitem__, detach()) or read via "
         ".numpy() under no_grad()",
         _outside_nn_and_checkpoint),
    Rule("EVL001", "eval-mode-missing",
         "inference entry point without eval_mode/no_grad",
         "wrap the body in `with eval_mode(self), no_grad():` (or delegate "
         "to a guarded sibling method)",
         _outside_nn),
    Rule("EVL002", "bare-eval-call",
         "bare .eval() call leaves the module in eval mode",
         "use the mode-restoring `with eval_mode(module):` context manager",
         _outside_nn),
    Rule("DEF001", "mutable-default",
         "mutable default argument is shared across calls",
         "default to None and construct the list/dict/set inside the body",
         _everywhere),
    Rule("EXC001", "bare-except",
         "bare `except:` swallows SystemExit/KeyboardInterrupt",
         "catch a concrete exception type (or `except Exception:`)",
         _everywhere),
    Rule("API002", "list-typed-corpus-param",
         "function parameter typed List[Table]/Sequence[Table] pins the "
         "corpus in memory",
         "accept a repro.data.Dataset (or Iterable[Table]) so memory-mapped "
         "sharded corpora stream through without materializing",
         _in_repro),
    Rule("OBS002", "metric-name-style",
         "span/metric name is not a lowercase slash/dot path",
         "name spans and metrics as lowercase [a-z0-9_] segments joined by "
         "'/' or '.' (`area/verb`, `serve.latency.<task>`)",
         _in_repro),
    Rule("LNT000", "suppression-without-reason",
         "lint suppression without a written reason",
         "write `# lint: disable=RULE(reason)` — the reason is mandatory",
         _everywhere),
    Rule("LNT001", "parse-error",
         "file does not parse",
         "fix the syntax error",
         _everywhere),
]}


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    @property
    def hint(self) -> str:
        return RULES[self.rule_id].hint

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


def _dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an attribute chain to a dotted name through import aliases."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, aliases)
        return f"{base}.{node.attr}" if base is not None else None
    return None


class _RuleVisitor(ast.NodeVisitor):
    """Single-pass visitor applying every in-scope rule to one parsed file."""

    def __init__(self, path: str, module: str):
        self.path = path
        self.module = module
        self.violations: List[Violation] = []
        self.aliases: Dict[str, str] = {}
        self.imports_stdlib_random = False
        self._active = {rule_id: rule.applies_to(module)
                        for rule_id, rule in RULES.items()}

    # -- helpers -----------------------------------------------------------
    def _flag(self, rule_id: str, node: ast.AST, message: str) -> None:
        if self._active.get(rule_id):
            self.violations.append(Violation(
                rule_id, self.path, getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0), message))

    # -- imports (alias resolution) ---------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.aliases[local] = alias.name if alias.asname else alias.name.split(".")[0]
            if alias.name == "random" or alias.name.startswith("random."):
                self.imports_stdlib_random = True
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                self.aliases[local] = f"{node.module}.{alias.name}"
            if node.module == "random" or node.module.startswith("random."):
                self.imports_stdlib_random = True
        self.generic_visit(node)

    # -- RNG001 / CLK001 / TRN001 / EVL002 on calls -----------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func, self.aliases)
        if dotted:
            self._check_rng(node, dotted)
            if dotted in CLOCK_CALLS:
                self._flag("CLK001", node,
                           f"wall-clock read `{dotted}()` outside repro.obs.clock")
        self._check_training_step(node)
        if (isinstance(node.func, ast.Attribute) and node.func.attr == "eval"
                and not node.args and not node.keywords):
            target = _dotted(node.func, self.aliases) or ".eval"
            self._flag("EVL002", node,
                       f"bare `{target}()` call does not restore the caller's "
                       "train/eval mode")
        self._check_obs_name(node, dotted)
        self.generic_visit(node)

    # -- TRN001 ------------------------------------------------------------
    def _check_training_step(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        receiver = _dotted(node.func.value, self.aliases) or ""
        if node.func.attr == "backward":
            self._flag("TRN001", node,
                       f"`{receiver or '<expr>'}.backward()` runs a training "
                       "step outside the shared Trainer")
        elif (node.func.attr == "step"
              and receiver.split(".")[-1].endswith("optimizer")):
            self._flag("TRN001", node,
                       f"`{receiver}.step()` runs a training step outside "
                       "the shared Trainer")

    # -- OBS002 ------------------------------------------------------------
    def _check_obs_name(self, node: ast.Call, dotted: Optional[str]) -> None:
        if not self._active.get("OBS002") or not node.args:
            return
        if isinstance(node.func, ast.Attribute):
            callee = node.func.attr
            named = callee in OBS_NAME_METHODS or callee in OBS_NAME_FUNCTIONS
        else:
            callee = (dotted or "").split(".")[-1]
            named = callee in OBS_NAME_FUNCTIONS
        if not named:
            return
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            if not OBS_NAME_PATTERN.match(first.value):
                self._flag("OBS002", node,
                           f"span/metric name {first.value!r} is not a "
                           "lowercase slash/dot path")
        elif isinstance(first, ast.JoinedStr):
            for piece in first.values:
                if (isinstance(piece, ast.Constant)
                        and isinstance(piece.value, str)
                        and not OBS_FRAGMENT_PATTERN.match(piece.value)):
                    self._flag("OBS002", node,
                               f"span/metric name fragment {piece.value!r} "
                               "is not lowercase slash/dot")
                    break

    def _check_rng(self, node: ast.Call, dotted: str) -> None:
        if dotted.startswith("numpy.random."):
            member = dotted.split(".")[2]
            if member not in ALLOWED_NP_RANDOM:
                self._flag("RNG001", node,
                           f"global NumPy RNG call `{dotted}` mutates hidden "
                           "process state")
        elif self.imports_stdlib_random and (
                dotted == "random" or dotted.startswith("random.")):
            self._flag("RNG001", node,
                       f"stdlib RNG call `{dotted}` — use a seeded "
                       "numpy.random.Generator")

    # -- TEN001 ------------------------------------------------------------
    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.value, ast.Attribute) and node.value.attr == "data":
            owner = _dotted(node.value, self.aliases) or "<expr>.data"
            self._flag("TEN001", node,
                       f"raw subscript of `{owner}[...]` bypasses the "
                       "autograd tape")
        self.generic_visit(node)

    def _check_data_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Attribute) and target.attr == "data":
            owner = _dotted(target, self.aliases) or "<expr>.data"
            self._flag("TEN001", target,
                       f"assignment to `{owner}` rebinds tensor storage "
                       "behind the tape's back")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_data_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_data_target(node.target)
        self.generic_visit(node)

    # -- DEF001 ------------------------------------------------------------
    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                           ast.ListComp, ast.DictComp,
                                           ast.SetComp))
            if (isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set")):
                mutable = True
            if mutable:
                self._flag("DEF001", default,
                           f"mutable default argument in `{node.name}` is "
                           "evaluated once and shared across calls")

    # -- API002 ------------------------------------------------------------
    #: Container heads that force an eagerly materialized corpus parameter.
    EAGER_CONTAINER_HEADS = {"List", "Sequence", "list"}

    def _check_corpus_params(self, node) -> None:
        if not self._active.get("API002"):
            return
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            annotation = arg.annotation
            if not isinstance(annotation, ast.Subscript):
                continue
            head = annotation.value
            head_name = (head.attr if isinstance(head, ast.Attribute)
                         else head.id if isinstance(head, ast.Name) else "")
            if head_name not in self.EAGER_CONTAINER_HEADS:
                continue
            inner = annotation.slice
            inner_name = (inner.attr if isinstance(inner, ast.Attribute)
                          else inner.id if isinstance(inner, ast.Name) else "")
            if inner_name == "Table":
                self._flag("API002", arg,
                           f"parameter `{arg.arg}: {head_name}[Table]` of "
                           f"`{node.name}` forces an in-memory corpus — "
                           "accept Dataset or Iterable[Table]")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._check_corpus_params(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._check_corpus_params(node)
        self.generic_visit(node)

    # -- EXC001 ------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag("EXC001", node, "bare `except:` catches everything, "
                       "including KeyboardInterrupt")
        self.generic_visit(node)

    # -- EVL001 (class-level analysis) -------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        # Imports may appear below their first use site in source order, so
        # resolve every alias before rule checks run.
        for child in ast.walk(node):
            if isinstance(child, ast.Import):
                self.visit_Import(child)
            elif isinstance(child, ast.ImportFrom):
                self.visit_ImportFrom(child)
        # A class is module-like when a base resolves to MODULE_LIKE_BASES,
        # directly or through another class in the same file.
        local_bases: Dict[str, List[str]] = {}
        for child in node.body:
            if isinstance(child, ast.ClassDef):
                local_bases[child.name] = [
                    base.attr if isinstance(base, ast.Attribute) else
                    base.id if isinstance(base, ast.Name) else ""
                    for base in child.bases]
        module_like = set()
        changed = True
        while changed:
            changed = False
            for name, bases in local_bases.items():
                if name in module_like:
                    continue
                if any(base in MODULE_LIKE_BASES or base in module_like
                       for base in bases):
                    module_like.add(name)
                    changed = True
        for child in node.body:
            if isinstance(child, ast.ClassDef) and child.name in module_like:
                self._check_eval_entries(child)
        self.generic_visit(node)

    def _check_eval_entries(self, class_node: ast.ClassDef) -> None:
        if not self._active.get("EVL001"):
            return
        methods = [child for child in class_node.body
                   if isinstance(child, ast.FunctionDef)]
        guarded = {method.name for method in methods
                   if self._uses_eval_guard(method)}
        # Delegation is transitive: a shim that calls `self.evaluate(...)`,
        # which itself calls the guarded `self.rank(...)`, is guarded too.
        changed = True
        while changed:
            changed = False
            for method in methods:
                if (method.name not in guarded
                        and self._delegates_to(method, guarded)):
                    guarded.add(method.name)
                    changed = True
        for method in methods:
            if not _is_eval_entry(method.name) or method.name.startswith("_"):
                continue
            if method.name in guarded:
                continue
            if self._delegates_to(method, guarded):
                continue
            self._flag("EVL001", method,
                       f"`{class_node.name}.{method.name}` runs inference "
                       "without eval_mode/no_grad")

    @staticmethod
    def _uses_eval_guard(method: ast.FunctionDef) -> bool:
        for node in ast.walk(method):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    call = item.context_expr
                    if isinstance(call, ast.Call):
                        func = call.func
                        name = (func.attr if isinstance(func, ast.Attribute)
                                else func.id if isinstance(func, ast.Name)
                                else "")
                        if name in ("eval_mode", "no_grad"):
                            return True
        return False

    @staticmethod
    def _delegates_to(method: ast.FunctionDef, guarded: set) -> bool:
        for node in ast.walk(method):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                    and node.func.attr in guarded):
                return True
        return False


def check_file(tree: ast.AST, path: str, module: str) -> List[Violation]:
    """Run every in-scope rule over one parsed file."""
    visitor = _RuleVisitor(path, module)
    visitor.visit(tree)
    return sorted(visitor.violations, key=lambda v: (v.line, v.col, v.rule_id))
