"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys
from random import Random

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.import_qtalg()

import digest  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _cheap_tasks():
    """A few fast tasks from every workload, with their recorded digests."""
    picks = {
        "sandwich-a1": lambda k: k in ("sandwich/1", "sandwich/11", "sandwich/01"),
        "membership-a2": lambda k: k in ("membership/0", "membership/12", "membership/012"),
        "symbolic-v": lambda k: "/A1" in k,
        "loops-groups": lambda k: k
        in ("shift/1", "shift/2", "simplicity/1", "component/D4", "modules/A1-A2", "table/W(B2)"),
    }
    out = []
    for name, pick in picks.items():
        wl = workloads.WORKLOADS[name]
        expected = run.load_expected(name)
        tasks = [t for t in wl.inputs(wl.setup()) if pick(t.key)]
        out += [(t, expected) for t in tasks[:8]]
    return out


def _snapshot():
    snap = {}
    for module in tracer.Tracer.modules():
        for name, obj in vars(module).items():
            snap[(module.__name__, name)] = obj
            if inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    snap[(module.__name__, name, attr)] = raw
    return snap


def test_traced_and_untraced_runs_agree():
    tasks = _cheap_tasks()
    plain = [run.run_task(task, expected) for task, expected in tasks]
    t = tracer.Tracer()
    t.install()
    try:
        traced = [run.run_task(task, expected, t) for task, expected in tasks]
    finally:
        t.uninstall()
    for a, b in zip(plain, traced):
        assert a.ok and b.ok, (a.key, a.error, b.error)
        assert (a.key, a.digest) == (b.key, b.digest)
    metrics = t.layer_metrics()
    for layer in tracer.LAYERS:
        if layer not in ("linalg",):
            assert metrics[f"{layer}.calls"] > 0, layer


def test_tracing_restores_every_attribute():
    before = _snapshot()
    t = tracer.Tracer()
    t.install()
    from qtalg import daha, spherical

    assert spherical.dl_operator is not before[("qtalg.spherical", "dl_operator")]
    assert daha.DiffRefOperator.__mul__ is not before[("qtalg.daha", "DiffRefOperator", "__mul__")]
    t.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_reexported_functions_are_traced_where_used():
    from qtalg import acceptance, daha, spherical

    t = tracer.Tracer()
    t.install()
    try:
        assert spherical.dl_operator is daha.dl_operator
        assert acceptance.dl_operator is daha.dl_operator
        assert daha.dl_operator.__wrapped__ is not None
    finally:
        t.uninstall()


def test_digest_ignores_storage_but_not_value():
    from qtalg.scalars import LaurentPoly, Scalar

    q, t = LaurentPoly.q(), LaurentPoly.t()
    reduced = Scalar(q + LaurentPoly.one())
    unreduced = Scalar.__new__(Scalar)  # same value, uncancelled form
    unreduced.num, unreduced.den = (q + LaurentPoly.one()) * (t + LaurentPoly.one()), t + LaurentPoly.one()
    wrong = Scalar(q + LaurentPoly.const(2))
    assert digest.digest(reduced) == digest.digest(unreduced)
    assert digest.digest(reduced) != digest.digest(wrong)


def test_cyclotomic_digest_ignores_the_conductor():
    from qtalg.clifford import Cyc

    w = Cyc.zeta(3)
    for n in (6, 12, 24):
        assert digest.digest(w.promote(n)) == digest.digest(w)
    assert digest.cyclotomic(Cyc.const(12, 5)) == (1, ("5",))
    assert digest.digest(w) != digest.digest(w.conjugate())
    rows = [[(1, Cyc.one(3)), (2, w)], [(1, Cyc.one(3)), (2, w.conjugate())]]
    shuffled = [row[::-1] for row in rows[::-1]]
    unordered = digest.Unordered
    assert digest.digest(unordered(map(unordered, rows))) == digest.digest(
        unordered(map(unordered, shuffled))
    )


def test_wrong_digest_fails_the_task():
    ctx = workloads.sandwich_setup()
    task = workloads.sandwich_task(ctx, "1")
    assert run.run_task(task, run.load_expected("sandwich-a1")).ok
    out = run.run_task(task, {task.key: "0" * 16})
    assert not out.ok and "digest" in out.error


def test_raising_task_counts_as_failed():
    def boom():
        raise ValueError("no")

    out = run.run_task(workloads.Task("x", boom), {})
    assert not out.ok and "raised" in out.error


def test_rounds_draw_only_recorded_inputs():
    for name, wl in workloads.WORKLOADS.items():
        ctx = wl.setup()
        inputs = {t.key for t in wl.inputs(ctx)}
        assert inputs == run.load_expected(name).keys(), name
        rng = Random(7)
        for _ in range(3):
            assert {t.key for t in wl.round(ctx, rng)} <= inputs, name


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(trace):
    proc = _run_cli("--workload", "loops-groups", "--seed", "3", "--seconds", "8", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    text = "\n".join(lines[:-1])
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(m["name"] in line and f" {m['unit']}" in line for line in lines[:-1]), m
    if trace == "0":
        assert "fail_ratio" in text and "task_p90_s" in text
        assert "p90 of n=" in text and "beyond it" in text
        assert result["metrics"]["setup_s"]["value"] > 0
    else:
        assert result["metrics"]["torusfn.calls"]["value"] == 0
        assert result["metrics"]["daha.calls"]["value"] == 0
        assert result["metrics"]["spherical.calls"]["value"] == 0


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_cli("--workload", "sandwich-a1", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
