"""Layer profiler: path mapping, forward/backward attribution, memory
windows, bit-identity with profiling on/off, and report rendering."""

import re

import numpy as np
import pytest

from repro.nn import FORWARD_HOOK, TAPE_HOOK, Linear, Module, ModuleList, Tensor
from repro.obs import (
    LayerProfiler,
    format_layer_table,
    format_profile_tree,
    profile,
)


class _Block(Module):
    def __init__(self, dim, rng):
        super().__init__()
        self.dense = Linear(dim, dim, rng)
        self.out = Linear(dim, dim, rng)

    def forward(self, x):
        return self.out(self.dense(x).relu())


class _Net(Module):
    def __init__(self, dim, rng):
        super().__init__()
        self.blocks = ModuleList([_Block(dim, rng) for _ in range(2)])
        self.head = Linear(dim, 1, rng)

    def forward(self, x):
        for block in self.blocks:
            x = block(x)
        return self.head(x)


def _run(net, seed=3):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((4, 8)).astype(np.float64))
    loss = net(x).sum()
    loss.backward()
    grads = [p.grad.copy() for _, p in sorted(net.named_parameters())]
    return float(loss.data), grads


@pytest.fixture
def net():
    return _Net(8, np.random.default_rng(0))


def test_paths_cover_module_tree(net):
    profiler = LayerProfiler()
    profiler.install(net)
    try:
        net(Tensor(np.zeros((2, 8))))
    finally:
        profiler.uninstall()
    paths = profiler.active_paths()
    assert paths[0] == "model"
    assert "model/blocks/items/0/dense" in paths
    assert "model/blocks/items/1/out" in paths
    assert "model/head" in paths
    # definition order: block 0 before block 1 before head
    assert paths.index("model/blocks/items/0/dense") < paths.index(
        "model/blocks/items/1/dense") < paths.index("model/head")


def test_forward_time_parent_covers_children(net):
    with profile(net) as profiler:
        for _ in range(3):
            net(Tensor(np.zeros((2, 8))))
    stats = profiler.stats()
    root = stats["model"]
    assert root.calls == 3
    child_sum = sum(stats[p].forward_seconds for p in
                    ("model/blocks/items/0/dense", "model/blocks/items/0/out"))
    block = stats["model/blocks/items/0/dense"]
    assert block.calls == 3
    # cumulative >= every child; self excludes instrumented children
    assert stats["model"].forward_seconds >= child_sum * 0.99
    assert root.forward_self_seconds <= root.forward_seconds
    assert profiler.total_forward_seconds() == pytest.approx(
        root.forward_seconds)


def test_backward_attribution(net):
    with profile(net) as profiler:
        _run(net)
    stats = profiler.stats()
    attributed = [s for s in stats.values() if s.backward_ops]
    assert attributed, "no tape nodes were attributed to layers"
    head = stats["model/head"]
    assert head.backward_ops > 0
    assert head.backward_seconds >= 0.0
    # leaf Linear layers create tape nodes; the container paths may not
    assert stats["model/blocks/items/1/out"].backward_ops > 0


def test_bit_identity_with_profiling(net):
    loss_plain, grads_plain = _run(net)
    net.zero_grad()
    with profile(net, memory=True):
        loss_profiled, grads_profiled = _run(net)
    assert loss_profiled == loss_plain
    for a, b in zip(grads_plain, grads_profiled):
        assert np.array_equal(a, b)


def test_hooks_released_after_uninstall(net):
    assert not FORWARD_HOOK.enabled and not TAPE_HOOK.enabled
    with profile(net):
        assert FORWARD_HOOK.enabled and TAPE_HOOK.enabled
    assert not FORWARD_HOOK.enabled and not TAPE_HOOK.enabled
    # a second profiler can install after the first released the hooks
    with profile(net) as profiler:
        net(Tensor(np.zeros((1, 8))))
    assert profiler.stats()["model"].calls == 1


def test_double_install_rejected(net):
    profiler = LayerProfiler()
    profiler.install(net)
    try:
        with pytest.raises(RuntimeError):
            profiler.install(net)
        with pytest.raises(RuntimeError):
            LayerProfiler().install(net)
    finally:
        profiler.uninstall()


def test_foreign_modules_are_transparent(net):
    other = Linear(8, 8, np.random.default_rng(1))
    with profile(net) as profiler:
        net(Tensor(np.zeros((2, 8))))
        other(Tensor(np.zeros((2, 8))))  # not in the instrumented tree
    stats = profiler.stats()
    assert stats["model"].calls == 1
    assert all(s.calls <= 1 for s in stats.values())


def test_memory_attribution(net):
    with profile(net, memory=True) as profiler:
        net(Tensor(np.zeros((64, 8))))
    stats = profiler.stats()
    assert stats["model"].peak_bytes > 0
    assert stats["model/head"].peak_bytes > 0


def test_reports_render(net):
    with profile(net, memory=True) as profiler:
        _run(net)
    tree = format_profile_tree(profiler)
    assert "Layer" in tree and "Peak MB" in tree
    assert "\n  head" in tree  # depth-1 indentation
    assert "dense" in tree  # leaf layers present
    table = format_layer_table(profiler, wall_seconds=1.0, limit=3)
    lines = table.splitlines()
    assert len(lines) == 5  # header + limit rows + unattributed
    assert "model" in lines[1]
    assert lines[-1].startswith("unattributed")
    payload = profiler.to_dict()
    assert payload["memory"] is True
    assert any(layer["path"] == "model/head" for layer in payload["layers"])


def _fwd_percent(table):
    """``{path: Fwd %}`` parsed from a rendered layer table (no memory
    column): layer rows end ``Fwd % | Bwd s | Ops``, the unattributed row
    ends with its percentage."""
    percent = {}
    for row in table.splitlines()[1:]:
        fields = row.split()
        percent[fields[0]] = float(
            fields[-1] if fields[0] == "unattributed" else fields[-3])
    return percent


def _profiled_pretrain(context):
    """Profile one small pre-training epoch; return the profiler and the
    run's measured wall seconds."""
    from repro.core.pretrain import Pretrainer

    model = context.fresh_model(seed=3)
    instances = context.instances_for(context.splits.train)[:8]
    pretrainer = Pretrainer(model, instances, context.candidate_builder,
                            context.config, seed=1)
    with profile(model) as profiler:
        stats = pretrainer.train(n_epochs=1)
    return profiler, stats.wall_seconds


def test_layer_table_reconciles_to_measured_wall(context):
    profiler, wall = _profiled_pretrain(context)
    table = format_layer_table(profiler, wall)
    percent = _fwd_percent(table)
    # TURLModel.encode bypasses Module.__call__: the top-most rows that ran
    # are children of the root, and the encoder is one of them.
    top = profiler.top_paths()
    assert "model" not in top and "model/encoder" in top
    encoder = profiler.stats()["model/encoder"]
    assert percent["model/encoder"] == float(
        f"{100.0 * encoder.forward_seconds / wall:.1f}")
    backward = 100.0 * profiler.total_backward_seconds() / wall
    total = (sum(percent[path] for path in top) + backward
             + percent["unattributed"])
    assert total == pytest.approx(100.0, abs=0.5)


def test_name_column_fits_the_longest_label(context):
    """Deep paths such as ``model/encoder/blocks/items/0/attention/output``
    must not push their row's ``Calls`` column right of the header's."""
    profiler, wall = _profiled_pretrain(context)
    assert max(len(path) for path in profiler.active_paths()) > 44
    for table in (format_profile_tree(profiler),
                  format_layer_table(profiler, wall)):
        header, *rows = table.splitlines()
        calls_end = re.match(r"Layer +Calls", header).end()
        layer_rows = [row for row in rows if not row.startswith("unattributed")]
        assert layer_rows
        for row in layer_rows:
            assert re.match(r" *\S+ +\d+", row).end() == calls_end, row
