"""Tests of the benchmark itself: python3 -m pytest perfbench

Each workload runs once in smoke mode (one set-up, one seeded round) in a
fresh process, untraced and traced.
"""

import itertools
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_metrics_printed_with_units(workload, tmp_path):
    spans_out = str(tmp_path / "spans.json")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = result(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--smoke",
                           "--spans-out", spans_out))
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True and out["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        assert got == want
        for v in out["metrics"].values():
            assert isinstance(v["value"], (int, float))
        if trace == 0:
            ok_frac = out["metrics"]["ok_frac"]["value"]
            assert ok_frac == pytest.approx(1 - out["failed"] / out["attempted"])
            if workload != "cli":
                assert out["failed"] == 0

    with open(spans_out) as fh:
        spans = json.load(fh)
    selfs = [s[5] for s in spans["spans"]]
    roots = [s[2] - s[1] for s in spans["spans"] if s[3] is None]
    wall = sum(spans["job_s"])
    assert min(selfs) > -1e-9
    assert len(roots) == len(spans["job_s"])
    assert sum(selfs) == pytest.approx(sum(roots), rel=1e-9)
    assert sum(selfs) <= wall
    assert sum(selfs) >= 0.98 * wall


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_setup_leaves_oracle_checks_to_the_checks(workload, monkeypatch, tmp_path):
    """The timed set-up builds inputs only; the slow oracle verdicts wait."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import nlts
    workloads.precompute(workload, nlts)
    calls = []
    for name in ("nijenhuis_ok", "is_isomorphism"):
        monkeypatch.setattr(oracle, name,
                            lambda *args, name=name: calls.append(name))
    workloads.build(workload, nlts, random.Random(1), 1, str(tmp_path))
    assert calls == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "cohomology", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    lines = done.stdout.strip().splitlines()
    assert not lines or not lines[-1].startswith("{")


def test_pinned_dimensions_match_reference_oracle():
    """Cross-check PINNED with the sympy oracle of the test suite."""
    sympy = pytest.importorskip("sympy")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import nlts
    import reference as ref

    def d_rank(ctx, n, m, deg):
        if deg < 1:
            return 0
        dom = [(f, ref.czero(n, m, deg - 2) if deg > 1 else None)
               for f in ref.cochain_basis(n, m, deg)]
        if deg > 1:
            dom += [(ref.czero(n, m, deg), g)
                    for g in ref.cochain_basis(n, m, deg - 2)]
        rows = []
        for f, g in dom:
            df, second = ctx.d(f, g, deg)
            rows.append(ref.flat(df, n, m, deg + 2) + ref.flat(second, n, m, deg))
        return sympy.Matrix(rows).rank()

    for (name, deg), want in workloads.PINNED.items():
        system, rep, N, Nv = workloads.context(nlts, name)
        n, m = system.dim, rep.vdim
        br = {t: system.coeff(*t) for t in itertools.product(range(n), repeat=3)}
        ctx = ref.Ctx(n, br, dict(rep.theta), m, N, Nv)
        dim_c = len(ref.cochain_basis(n, m, deg)) + (
            len(ref.cochain_basis(n, m, deg - 2)) if deg > 1 else 0)
        z = dim_c - d_rank(ctx, n, m, deg)
        b = d_rank(ctx, n, m, deg - 2)
        assert (dim_c, z, b, z - b) == want, (name, deg)
