"""Self-tests of the benchmark: every workload runs clean at a tiny size,
every output check fires on a corrupted result, tracing counts what it
should and changes no output, and the reported metrics match BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Curvature, Scan, Verify  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 3


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# -- metric names ------------------------------------------------------------


def test_metric_names_units_match_benchmark_json():
    s = spec()
    e2e = {m["name"]: m["unit"] for m in s["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in s["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == tracing.layer_metric_units()
    assert {w["name"] for w in s["workloads"]} == set(workloads.WORKLOADS)
    for name, unit in {**e2e, **layer}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


# -- each workload at a tiny size -------------------------------------------


@pytest.mark.parametrize("cls", [Scan, Curvature, Verify])
def test_tiny_workload_runs_clean(cls):
    wl = cls(SEED, tiny=True)
    try:
        p = run.drive(wl, wl.ops())
    finally:
        wl.close()
    assert p.failed == 0, p.problems
    assert len(p.latencies) == len(wl.ops()) > 0
    assert all(d is not None for d in p.digests)
    assert 0 < wl.accuracy()["oracle_digits"] <= workloads.DIGITS_CAP


def test_inputs_repeat_for_a_seed():
    a, b = Scan(SEED, tiny=True), Scan(SEED, tiny=True)
    for x, y in zip(a.ops(), b.ops()):
        assert x["grid"] == y["grid"]
        assert np.array_equal(x["sample"], y["sample"])
    assert Scan(SEED + 1, tiny=True).ops()[0]["grid"] != a.ops()[0]["grid"]


@pytest.mark.parametrize("seed", [11, 16])
def test_curvature_redraws_families_without_admissible_points(seed):
    # these seeds first draw a generic C7 (11) or C6 (16) family whose metric
    # condition number exceeds MAX_CONDITION over the whole sampled region
    wl = Curvature(seed, tiny=True)
    for op in wl.ops():
        ev = np.linalg.eigvalsh(
            workloads.fubini_study.numeric_fs_metric(op["family"], op["point"]).entries
        )
        assert 0 < ev.min() and ev.max() / ev.min() <= Curvature.MAX_CONDITION


def test_scan_phi_axis_spans_the_branch_boundary():
    for op in Scan(SEED).ops():
        start, stop, _ = op["grid"]["phi"]
        assert start > -np.pi and stop == np.pi and start < -np.pi / 2


# -- output checks fire on corrupted results ---------------------------------


def corrupt_run(monkeypatch, wl, corrupt):
    original = wl.run

    def corrupted(op):
        return corrupt(op, original(op))

    monkeypatch.setattr(wl, "run", corrupted)
    return run.drive(wl, wl.ops())


def test_scan_checks_fire(monkeypatch):
    wl = Scan(SEED, tiny=True)
    op = wl.ops()[0]
    out = wl.run(op)
    shifted = out.values.copy()
    shifted[op["sample"][0]] += 1e-3
    bad = dataclasses.replace(out, values=shifted)
    assert wl.check(op, bad)[0]
    assert workloads.check_scan_values(np.array([0.5, 1.0 + 1e-9]), 2)
    assert workloads.check_scan_values(np.array([-1e-9]), 1)
    assert workloads.check_scan_values(np.zeros(3), 4)

    def shift(op, out):
        out.values[op["sample"][0]] += 1e-3
        return out

    p = corrupt_run(monkeypatch, wl, shift)
    assert p.failed == len(wl.ops())


def test_scan_closed_form_check_fires(monkeypatch):
    wl = Scan(SEED, tiny=True)
    real = workloads.entanglement.concurrence_analytic
    monkeypatch.setattr(
        workloads.entanglement, "concurrence_analytic",
        lambda case, eta, xi: real(case, eta, xi) + 1e-9,
    )
    p = run.drive(wl, wl.ops())
    assert p.failed > 0
    assert any("closed form" in s for s in p.problems)


def test_curvature_checks_fire(monkeypatch):
    wl = Curvature(SEED, tiny=True)
    uniform = next(op for op in wl.ops() if op["uniform"])
    rep = wl.run(uniform)
    assert not wl.check(uniform, rep)[0]
    assert wl.check(uniform, dataclasses.replace(rep, scalar=rep.scalar * 1.02))[0]
    riemann = rep.riemann.copy()
    riemann[0, 0, 0, 1] = np.nan
    assert wl.check(uniform, dataclasses.replace(rep, riemann=riemann))[0]

    real = workloads.fubini_study.numeric_fs_metric

    def off_metric(family, xi, **kw):
        g = real(family, xi, **kw)
        return dataclasses.replace(g, entries=g.entries + 2e-6)

    monkeypatch.setattr(workloads.fubini_study, "numeric_fs_metric", off_metric)
    assert any("C7 metric" in s for s in wl.check(uniform, rep)[0])


def test_curvature_corruption_counts_as_failed(monkeypatch):
    wl = Curvature(SEED, tiny=True)
    p = corrupt_run(
        monkeypatch, wl, lambda op, rep: dataclasses.replace(rep, scalar=float("nan"))
    )
    assert p.failed == len(wl.ops())


def test_verify_checks_fire(monkeypatch):
    wl = Verify(SEED, tiny=True)
    try:
        seed = wl.ops()[0]
        rc = wl.run(seed)
        report = json.loads(Path(wl.out_path).read_text())
        assert not workloads.check_verify_report(rc, report, seed)
        assert workloads.check_verify_report(1, report, seed)
        assert workloads.check_verify_report(rc, report, seed + 1)
        hard = json.loads(json.dumps(report))
        hard["results"]["n_hard_failed"] = 1
        assert workloads.check_verify_report(rc, hard, seed)
        soft = json.loads(json.dumps(report))
        flagged = next(c for c in soft["checks"] if c["passed"])
        flagged.update(passed=False, soft=True)
        assert workloads.check_verify_report(rc, soft, seed)

        p = corrupt_run(monkeypatch, wl, lambda op, rc: 1)
        assert p.failed == len(wl.ops())
    finally:
        wl.close()
    assert not Path(wl.out_path).exists()


# -- tracing -------------------------------------------------------------------


def traced_metrics(make):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl = make()
        p = run.drive(wl, wl.ops(), tracer=tracer)
        wl.close()
    finally:
        tracer.uninstall()
    assert p.failed == 0, p.problems
    return tracer.layer_metrics(), p


def test_tracing_counts_and_restores_bindings():
    from qorbits import cli, families, hamiltonian, model

    originals = (families.eigvec_pair, cli.COMMANDS["verify"], cli.dumps,
                 model.classify, families.StateFamily.__dict__["state"])
    m, _ = traced_metrics(lambda: Curvature(SEED, tiny=True))
    assert m["fubini_study.states_per_metric.4d"] == 17
    assert m["fubini_study.states_per_metric.3d"] == 13
    assert m["curvature.metrics_per_curvature.4d"] == 165
    assert m["curvature.metrics_per_curvature.3d"] == 101
    assert 0 < m["curvature.distinct_metric_frac"] < 1
    assert m["entanglement.concurrence.calls"] == 0
    assert m["families.state.self_s"] > 0
    m, _ = traced_metrics(lambda: Scan(SEED, tiny=True))
    assert m["entanglement.states_per_point"] == 1
    assert m["fubini_study.numeric_fs_metric.calls"] == 0
    assert originals == (families.eigvec_pair, cli.COMMANDS["verify"], cli.dumps,
                         model.classify, families.StateFamily.__dict__["state"])
    assert hamiltonian.eigvec_pair is families.eigvec_pair


def test_tracing_patches_the_bindings_callers_use():
    m, p = traced_metrics(lambda: Verify(SEED, tiny=True))
    n = len(p.latencies)
    assert m["cli.cmd_verify.calls"] == n
    assert m["cli.dumps.calls"] == n  # outermost call only
    assert m["hamiltonian.eigvec_pair.calls"] > 0  # bound in families
    assert m["hamiltonian.perturbed_eigenstates.calls"] > 0
    assert m["model.classify.calls"] > 0
    assert m["perturbation.numeric_beta_derivative.calls"] > 0
    assert all(m[f"{layer}.errors"] == 0 for layer in tracing.LAYERS)


def test_tracing_counts_errors_per_layer():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from qorbits import model
        from qorbits.model import InitialCoefficients

        tracer.recording = True
        with pytest.raises(Exception):
            model.classify(InitialCoefficients(0, 0, 0, 1))
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics()["model.errors"] == 1


def test_counts_repeat_and_traced_outputs_match_untraced():
    def make():
        return Curvature(SEED, tiny=True)

    plain = make()
    run_, metrics = run.traced(plain, make, "curvature")
    assert run_.failed == 0, run_.problems
    run2, metrics2 = run.traced(make(), make, "curvature")
    for name, (value, unit) in metrics.items():
        if unit != "s" and name != "trace.overhead_frac":
            assert metrics2[name][0] == value, name
    assert set(metrics) == set(tracing.layer_metric_units())


# -- reference scaling ---------------------------------------------------------


def test_reference_run_follows_every_operation():
    wl = Scan(SEED, tiny=True)
    p = run.drive(wl, wl.ops(), reference=50)
    assert len(p.reference) == len(p.latencies) == len(wl.ops())
    assert all(t > 0 for t in p.reference)
    assert not run.drive(wl, wl.ops()).reference


def test_each_timing_is_scaled_by_the_faster_adjacent_reference_run():
    full = 1e-3 * run.REF_MS_PER_ITERATION * 100  # reference time at full speed
    assert run.reference_scale(full, 100) == pytest.approx(1.0)
    # a run at half speed throughout is scaled back to full speed; a slow
    # reference run next to a fast one does not shrink the operation
    scaled = run.scaled_latencies([0.2, 0.2, 0.1], [2 * full, 2 * full, full], 100)
    assert scaled == pytest.approx([0.1, 0.1, 0.1])


# -- the command line ---------------------------------------------------------


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    s = spec()
    key = "per_layer" if trace == "1" else "end_to_end"
    done = bench("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    res = last_json(done.stdout)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in s[key]} == {
        k: v["unit"] for k, v in res["metrics"].items()
    }


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = bench("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
