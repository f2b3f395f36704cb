"""Each lint rule against a deliberately-seeded violation (and a clean twin).

Every case feeds a small source snippet through
:func:`repro.lint.lint_source` under a path that puts it in the rule's
scope, then asserts the expected rule fires at the expected line — and that
the compliant variant stays clean.
"""

import textwrap

import pytest

from repro.lint import RULES, lint_source
from repro.lint.engine import module_name


def _lint(source, path="src/repro/core/example.py"):
    return lint_source(textwrap.dedent(source), path)


def _rule_ids(result):
    return [violation.rule_id for violation in result.violations]


# -- scope plumbing ---------------------------------------------------------

def test_module_name_resolution():
    assert module_name("src/repro/core/masking.py") == "repro.core.masking"
    assert module_name("src/repro/lint/__init__.py") == "repro.lint"
    assert module_name("tests/nn/test_tensor_autograd.py") == \
        "tests.nn.test_tensor_autograd"
    assert module_name("scratch.py") == "scratch"


def test_every_rule_has_id_summary_and_hint():
    for rule_id, rule in RULES.items():
        assert rule.id == rule_id
        assert rule.summary and rule.hint


# -- RNG001 -----------------------------------------------------------------

def test_rng001_flags_global_numpy_random():
    result = _lint("""
        import numpy as np
        x = np.random.rand(3)
    """)
    assert _rule_ids(result) == ["RNG001"]
    assert result.violations[0].line == 3


def test_rng001_flags_stdlib_random():
    result = _lint("""
        import random
        x = random.random()
    """)
    assert _rule_ids(result) == ["RNG001"]


def test_rng001_allows_generator_construction():
    result = _lint("""
        import numpy as np
        rng = np.random.default_rng(0)
        gen = np.random.Generator(np.random.PCG64(1))
        x = rng.normal(size=3)
    """)
    assert result.ok


def test_rng001_inactive_outside_repro():
    result = _lint("""
        import numpy as np
        x = np.random.rand(3)
    """, path="tests/nn/test_example.py")
    assert result.ok


# -- CLK001 -----------------------------------------------------------------

def test_clk001_flags_wall_clock_reads():
    result = _lint("""
        import time
        from datetime import datetime
        a = time.time()
        b = time.perf_counter()
        c = datetime.now()
    """)
    assert _rule_ids(result) == ["CLK001", "CLK001", "CLK001"]


def test_clk001_allows_clock_inside_obs():
    result = _lint("""
        import time
        a = time.time()
    """, path="src/repro/obs/clock.py")
    assert result.ok


def test_clk001_flags_clock_reads_elsewhere_in_obs():
    result = _lint("""
        import time
        a = time.perf_counter()
    """, path="src/repro/obs/metrics.py")
    assert _rule_ids(result) == ["CLK001"]


# -- TEN001 -----------------------------------------------------------------

def test_ten001_flags_data_subscript_and_assignment():
    result = _lint("""
        def f(tensor, other):
            x = tensor.data[0]
            other.weight.data[1] = 0.0
            return x
    """)
    assert _rule_ids(result) == ["TEN001", "TEN001"]


def test_ten001_allows_attribute_reads_and_nn_scope():
    clean = _lint("""
        def f(tensor):
            return tensor.data.argmax()
    """)
    assert clean.ok
    in_nn = _lint("""
        def f(tensor):
            return tensor.data[0]
    """, path="src/repro/nn/tensor.py")
    assert in_nn.ok
    in_checkpoint = _lint("""
        def f(tensor):
            tensor.data[...] = 0.0
    """, path="src/repro/train/checkpoint.py")
    assert in_checkpoint.ok


# -- EVL001 -----------------------------------------------------------------

def test_evl001_flags_unguarded_predict_on_module():
    result = _lint("""
        class Head(Module):
            def predict(self, x):
                return self.forward(x)
    """)
    assert _rule_ids(result) == ["EVL001"]


def test_evl001_accepts_guarded_and_delegating_entries():
    result = _lint("""
        class Head(Module):
            def predict(self, x):
                with eval_mode(self), no_grad():
                    return self.forward(x)

            def evaluate(self, xs):
                return [self.predict(x) for x in xs]
    """)
    assert result.ok


def test_evl001_ignores_non_module_classes():
    result = _lint("""
        class LookupBaseline:
            def predict(self, x):
                return x
    """)
    assert result.ok


def test_evl001_resolves_in_file_base_chain():
    result = _lint("""
        class Base(Module):
            pass

        class Head(Base):
            def rank(self, xs):
                return sorted(xs)
    """)
    assert _rule_ids(result) == ["EVL001"]


def test_evl001_delegation_is_transitive():
    result = _lint("""
        class Head(Module):
            def rank(self, x):
                with eval_mode(self), no_grad():
                    return self.forward(x)

            def evaluate(self, xs):
                return [self.rank(x) for x in xs]

            def evaluate_summary(self, xs):
                return sum(self.evaluate(xs))
    """)
    assert result.ok


# -- API002 -----------------------------------------------------------------

def test_api002_flags_list_typed_corpus_params():
    result = _lint("""
        from typing import List, Sequence

        def build(corpus: List[Table], extra: Sequence[Table]) -> None:
            pass
    """)
    assert _rule_ids(result) == ["API002", "API002"]


def test_api002_flags_lowercase_list_and_keyword_only():
    result = _lint("""
        def build(*, tables: list[Table] = ()) -> None:
            pass
    """)
    assert _rule_ids(result) == ["API002"]


def test_api002_allows_datasets_iterables_and_other_element_types():
    result = _lint("""
        from typing import Iterable, List

        def build(corpus: Dataset, stream: Iterable[Table],
                  losses: List[float]) -> List[Table]:
            cache: List[Table] = []
            return cache
    """)
    assert result.ok


def test_api002_inactive_outside_repro():
    result = _lint("""
        from typing import List

        def build(corpus: List[Table]) -> None:
            pass
    """, path="tools/example.py")
    assert result.ok


# -- EVL002 -----------------------------------------------------------------

def test_evl002_flags_bare_eval_call():
    result = _lint("""
        def run(model):
            model.eval()
    """)
    assert _rule_ids(result) == ["EVL002"]


def test_evl002_allows_eval_mode_context():
    result = _lint("""
        def run(model, x):
            with eval_mode(model):
                return model(x)
    """)
    assert result.ok


# -- DEF001 -----------------------------------------------------------------

def test_def001_flags_mutable_defaults():
    result = _lint("""
        def f(items=[], table={}, tags=set()):
            return items, table, tags
    """)
    assert _rule_ids(result) == ["DEF001", "DEF001", "DEF001"]


def test_def001_allows_immutable_defaults():
    result = _lint("""
        def f(items=(), name="x", count=0, other=None):
            return items, name, count, other
    """)
    assert result.ok


# -- EXC001 -----------------------------------------------------------------

def test_exc001_flags_bare_except():
    result = _lint("""
        def f():
            try:
                return 1
            except:
                return 0
    """)
    assert _rule_ids(result) == ["EXC001"]


def test_exc001_allows_typed_except():
    result = _lint("""
        def f():
            try:
                return 1
            except ValueError:
                return 0
    """)
    assert result.ok


# -- suppressions / LNT000 / LNT001 -----------------------------------------

def test_suppression_with_reason_whitelists_and_is_counted():
    result = _lint("""
        import numpy as np
        x = np.random.rand(3)  # lint: disable=RNG001(exercising the linter)
    """)
    assert result.ok
    assert len(result.suppressed) == 1
    assert result.suppressed[0].reason == "exercising the linter"


def test_comment_only_suppression_applies_to_next_line():
    result = _lint("""
        import numpy as np
        # lint: disable=RNG001(exercising the linter)
        x = np.random.rand(3)
    """)
    assert result.ok and len(result.suppressed) == 1


def test_suppression_without_reason_is_lnt000():
    # The marker is split so this file's own (line-based) suppression scan
    # does not mistake the test fixture for a real reasonless suppression.
    source = ("import numpy as np\n"
              "x = np.random.rand(3)  # lint: " + "disable=RNG001\n")
    result = lint_source(source, "src/repro/core/example.py")
    assert sorted(_rule_ids(result)) == ["LNT000", "RNG001"]


def test_suppression_for_other_rule_does_not_whitelist():
    result = _lint("""
        import numpy as np
        x = np.random.rand(3)  # lint: disable=CLK001(wrong rule on purpose)
    """)
    assert _rule_ids(result) == ["RNG001"]


def test_syntax_error_is_lnt001():
    result = _lint("def broken(:\n    pass\n")
    assert _rule_ids(result) == ["LNT001"]


# -- OBS002: span / metric name style ---------------------------------------

def test_obs002_flags_bad_literal_names():
    result = _lint("""
        from repro.obs import trace, start_trace, get_registry
        with trace("Serve/Decode"):
            pass
        with start_trace("serve decode"):
            pass
        get_registry().counter("serve.Requests").inc()
        get_registry().histogram("serve..latency").observe(1.0)
    """)
    assert _rule_ids(result) == ["OBS002"] * 4


def test_obs002_allows_canonical_names():
    result = _lint("""
        from repro.obs import trace, start_trace, get_registry
        with trace("pretrain/step/forward"):
            pass
        with start_trace("serve/entity_linking"):
            pass
        registry = get_registry()
        registry.counter("serve.requests").inc()
        registry.gauge("serve.queue_depth").set(1.0)
        registry.histogram("serve.latency.entity_linking").observe(0.1)
        tracer.span("eval/probe_0")
    """)
    assert _rule_ids(result) == []


def test_obs002_checks_fstring_constant_fragments():
    result = _lint("""
        from repro.obs import trace
        with trace(f"serve/{task}"):
            pass
        with trace(f"Serve/{task}"):
            pass
        registry.histogram(f"serve.latency.{task}").observe(0.1)
        registry.histogram(f"serve latency {task}").observe(0.1)
    """)
    assert _rule_ids(result) == ["OBS002", "OBS002"]


def test_obs002_ignores_dynamic_names_and_other_calls():
    result = _lint("""
        from repro.obs import trace
        name = compute_name()
        with trace(name):
            pass
        print("NOT A METRIC")
        timer("Some Free Function")
    """)
    assert _rule_ids(result) == []


def test_obs002_inactive_outside_repro():
    result = _lint("""
        from repro.obs import trace
        with trace("Whatever Style"):
            pass
    """, path="tests/obs/test_example.py")
    assert _rule_ids(result) == []


def test_obs002_suppressible_with_reason():
    result = _lint("""
        from repro.obs import trace
        with trace("Legacy/Name"):  # lint: disable=OBS002(historic dashboard key)
            pass
    """)
    assert _rule_ids(result) == []
    assert [s.violation.rule_id for s in result.suppressed] == ["OBS002"]
    assert result.suppressed[0].reason == "historic dashboard key"
