"""One contraction per verify suite: families.states_of against each
family's own states, and every batched suite step against the per-family
loop it replaced, bit for bit and on the same generator."""

import hashlib
import importlib.util
import io
import contextlib
from pathlib import Path

import numpy as np
import pytest

from qorbits import cli, entanglement, families, fubini_study, model, perturbation, verify
from qorbits.families import (
    BLOCK_ROWS,
    StateFamily,
    check_periodicity,
    constrained_two_param_family,
    sliced_family,
    states_of,
)
from qorbits.fubini_study import numeric_fs_metric, numeric_fs_metrics, numeric_fs_metrics_of
from qorbits.model import CaseClass, InitialCoefficients

from conftest import random_eta, well_posed

SEEDS = range(20)
CORPUS = Path(__file__).resolve().parents[1] / "tools" / "report_corpus.py"


def split(stacked, parts):
    """The rows of a stacked states_of result, one array per part."""
    ends = np.cumsum([len(p[1]) for p in parts])
    return [stacked[end - len(p[1]):end] for p, end in zip(parts, ends)]


def c7(eta, beta=0.0):
    return StateFamily(CaseClass("C7"), eta, CaseClass("C7").chart, beta)


def mixed_parts(rng):
    parts = []
    for label in verify.DEFAULT_CASE_ETAS:
        f = verify._default_family(label)
        parts.append((f, rng.uniform(-2, 2, size=(int(rng.integers(1, 40)), f.dim))))
    f7 = verify._default_family("C7")
    parts.append((sliced_family(f7, {"phi": 0.3}), rng.uniform(-2, 2, size=(9, 3))))
    parts.append((constrained_two_param_family(0.7, f7.eta), rng.uniform(-2, 2, size=(6, 2))))
    eta = random_eta(rng)
    for beta in (1e-4, -1e-4):
        f = c7(eta, beta)
        parts.append((f, well_posed(f, rng.uniform(-1.3, 1.3, size=(30, 4)), 0.3)))
    rows = np.array([random_eta(rng).as_array() for _ in range(11)])
    parts.append((f7, rng.uniform(-2, 2, size=(11, 4)), rows))
    parts.append((verify._default_family("C4"), np.empty((0, 2))))
    # a part that crosses the first block boundary of the stack
    parts.append((f7, rng.uniform(-2, 2, size=(BLOCK_ROWS + 37, 4))))
    return parts


@pytest.mark.parametrize("seed", range(3))
def test_states_of_equals_each_parts_states(seed):
    rng = np.random.default_rng(seed)
    parts = mixed_parts(rng)
    assert sum(len(p[1]) for p in parts) > BLOCK_ROWS + 37
    stacked = states_of(parts)
    assert stacked.shape == (sum(len(p[1]) for p in parts), 4)
    for got, (f, *args) in zip(split(stacked, parts), parts):
        assert got.tobytes() == f.states(*args).tobytes()
    # the same parts in another order give the same rows
    order = rng.permutation(len(parts))
    moved = [parts[k] for k in order]
    for got, k in zip(split(states_of(moved), moved), order):
        f, *args = parts[k]
        assert got.tobytes() == f.states(*args).tobytes()


def test_a_refused_part_raises_naming_it():
    f7, f4 = verify._default_family("C7"), verify._default_family("C4")
    good = (f7, np.zeros((3, 4)))
    with pytest.raises(ValueError, match=r"^part 1 \(C4\): expected \(N, 2\) coordinates"):
        states_of([good, (f4, np.zeros((3, 4)))])
    with pytest.raises(ValueError, match=r"^part 1 \(C4\): per-row coefficients need the general orbit"):
        states_of([good, (f4, np.zeros((2, 2)), np.eye(4)[:2])])
    with pytest.raises(ValueError, match=r"^part 2 \(C7\): coefficient row 1 must be normalized"):
        states_of([good, good, (f7, np.zeros((2, 4)), np.eye(4)[:2] * [[1], [2]])])
    # one part keeps the message of StateFamily.states
    with pytest.raises(ValueError, match=r"^expected \(N, 2\) coordinates"):
        f4.states(np.zeros((3, 4)))


def periodicity_families(rng):
    fams = [verify._default_family(label) for label in verify.DEFAULT_CASE_ETAS]
    fams += [families.family_for_case(model.classify(eta), eta)
             for eta in (random_eta(rng, label) for label in ("C3", "C6", "C7"))]
    return fams


@pytest.mark.parametrize("seed", SEEDS)
def test_periodicity_in_one_pass_equals_the_per_family_loop(seed):
    fams = periodicity_families(np.random.default_rng(1000 + seed))
    batched, loop = np.random.default_rng(seed), np.random.default_rng(seed)
    assert check_periodicity(fams, batched) == tuple(check_periodicity(f, loop) for f in fams)
    assert batched.bit_generator.state == loop.bit_generator.state


def test_periodicity_refuses_any_perturbed_family_before_drawing():
    fams = [verify._default_family("C7"), c7(InitialCoefficients(0.5, 0.5, 0.5, 0.5), 1e-3)]
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="beta = 0"):
        check_periodicity(fams, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("chi", [0.0, 0.3])
def test_tables_in_one_pass_equal_the_per_family_loop(seed, chi):
    rng = np.random.default_rng(seed)
    tables = [families.family_for_case(model.classify(eta), eta) for eta in (
        InitialCoefficients.normalized(0.5, 0.5, 0.0, np.sqrt(0.5) * np.exp(1j * chi)),
        InitialCoefficients.normalized(0.0, 0.6, *[np.sqrt(0.32) * np.exp(1j * chi)] * 2),
        InitialCoefficients.normalized(0.5, 0.5, *[0.5 * np.exp(1j * chi)] * 2),
    )]
    domains = [verify._default_family(label) for label in verify.DEFAULT_CASE_ETAS]
    samples = [verify._table_samples(f, rng) for f in domains]
    parts = [(f, entanglement.max_entangled_points(f, chi)) for f in tables] + list(zip(domains, samples))
    values = split(entanglement.concurrences(states_of(parts)), parts)
    for f, v in zip(tables, values):
        assert entanglement.verify_max_entangled_tables(f, chi, v) == \
            entanglement.verify_max_entangled_tables(f, chi)
    for f, xs, v in zip(domains, samples, values[len(tables):]):
        assert v.tobytes() == entanglement.concurrences(f.states(xs)).tobytes()


def test_table_values_must_match_the_table_points():
    f = verify._default_family("C7")
    with pytest.raises(ValueError, match="concurrences"):
        entanglement.verify_max_entangled_tables(f, 0.0, np.ones(3))


def one_by_one_candidates(rng, count):
    """The diagonalization filter as a rejection loop, one candidate at a
    time."""
    etas, omegas = [], []
    while len(etas) < count:
        eta = model.unit_row(rng.normal(size=4) + 1j * rng.normal(size=4))
        omega = rng.uniform(-2, 2)
        if abs(fubini_study._overlap(eta, omega)[0]) >= 0.05:
            etas.append(eta)
            omegas.append(omega)
    return np.array(etas), np.array(omegas)


@pytest.mark.parametrize("seed", SEEDS)
def test_candidate_rounds_equal_the_rejection_loop(seed):
    rounds, loop = np.random.default_rng(seed), np.random.default_rng(seed)
    etas, omegas = verify._diagonalization_candidates(rounds, 20)
    want_etas, want_omegas = one_by_one_candidates(loop, 20)
    assert etas.tobytes() == want_etas.tobytes()
    assert omegas.tobytes() == want_omegas.tobytes()
    assert rounds.bit_generator.state == loop.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_eight_normals_are_two_draws_of_four(seed):
    one, two = np.random.default_rng(seed), np.random.default_rng(seed)
    normals = [one.normal(size=8) for _ in range(50)]
    rows = [two.normal(size=4) + 1j * two.normal(size=4) for _ in range(50)]
    assert verify._complex_rows(normals).tobytes() == np.array(rows).tobytes()
    assert one.bit_generator.state == two.bit_generator.state


def metric_parts(rng):
    """The stencils the metric suite evaluates: per-row C7 oracle points,
    each case family with its twisted copy, the flat slice, C4 and the
    two-parameter family."""
    f7 = verify._default_family("C7")
    rows = np.array([random_eta(rng).as_array() for _ in range(50)])
    parts = [(f7, rng.uniform(-1.2, 1.2, size=(50, 4)), rows)]
    for label in verify.DEFAULT_CASE_ETAS:
        f = verify._default_family(label)
        xi = rng.uniform(0.2, 1.0, size=(1, f.dim))
        parts += [(f, xi), (fubini_study.phase_twisted(f, verify._sum_phase), xi)]
    parts.append((sliced_family(f7, {"phi": 0.0}), rng.uniform(0, 1, size=(8, 3))))
    parts.append((verify._default_family("C4"), [[0.4, 1.1]]))
    eta2p = InitialCoefficients.normalized(0.7, 0.4, 0.5, 0.3)
    parts.append((constrained_two_param_family(0.7, eta2p), [[0.6, 0.8]]))
    return parts


@pytest.mark.parametrize("seed", SEEDS)
def test_metric_stencils_in_one_pass_equal_the_per_family_metrics(seed):
    parts = metric_parts(np.random.default_rng(seed))
    gamma = (1.0, 0.7)[seed % 2]
    got = numeric_fs_metrics_of(parts, gamma)
    assert len(got) == len(parts)
    for g, (f, xs, *etas) in zip(got, parts):
        want = numeric_fs_metrics(f, xs, gamma, etas=etas[0] if etas else None)
        assert g.tobytes() == want.tobytes()
    # the one-point metrics of C4 and the two-parameter family
    for g, (f, xs) in zip(got[-2:], parts[-2:]):
        assert g[0].tobytes() == numeric_fs_metric(f, np.array(xs[0]), gamma).entries.tobytes()


def test_metric_pass_names_the_part_with_a_singular_derivative():
    f7, f3 = verify._default_family("C7"), verify._default_family("C3")
    parts = [(f7, np.full((2, 4), 0.3)), (f3, np.array([[0.4, 0.2], [0.3, np.nan]]))]
    with pytest.raises(fubini_study.ChartSingularityError, match=r"'omega' at xi=\[0.3 nan\]"):
        numeric_fs_metrics_of(parts)


def per_family_beta_derivative(eta, xs, gamma):
    """dg/dbeta as four numeric_fs_metrics calls, one per +-beta family."""
    def central(step):
        g = [numeric_fs_metrics(c7(eta, b), xs, gamma) for b in (step, -step)]
        return (g[0] - g[1]) / (2.0 * step)

    return (4.0 * central(0.5 * perturbation.BETA_STEP) - central(perturbation.BETA_STEP)) / 3.0


@pytest.mark.parametrize("seed", SEEDS)
def test_beta_derivative_in_one_pass_equals_the_per_family_loop(seed):
    rng = np.random.default_rng(seed)
    eta = InitialCoefficients.normalized(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
    pts = rng.uniform([0.4, -1.2, -1.4, -1.4], [1.6, 1.2, 1.4, 1.4], size=(16, 4))
    f = c7(eta, perturbation.BETA_STEP)
    xs = well_posed(f, pts, perturbation.RESONANCE_MARGIN)
    gamma = (1.0, 0.7)[seed % 2]
    got = perturbation.numeric_beta_derivative(eta, xs, gamma)
    assert got.tobytes() == per_family_beta_derivative(eta, xs, gamma).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_audit_maxima_equal_the_per_component_maxima(seed):
    rng = np.random.default_rng(seed)
    eta = InitialCoefficients.normalized(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
    pts = rng.uniform([0.4, -1.2, -1.4, -1.4], [1.6, 1.2, 1.4, 1.4], size=(16, 4))
    audit = perturbation.audit_metric_correction(eta, pts)
    omega, phi, c3, c_plus = pts.T
    den1, den2 = 2 * c3 + omega - c_plus, 2 * c3 - omega - c_plus
    used = pts[(np.minimum(abs(den1), abs(den2)) >= perturbation.RESONANCE_MARGIN) & (np.cos(phi) > 0.05)]
    closed = perturbation.metric_correction_closed_form(eta, used)
    numeric = perturbation.numeric_beta_derivative(eta, used)
    names = model.CASE_CHARTS["C7"]
    want = []
    for a in range(4):
        for b in range(a, 4):
            c, n = closed[:, a, b], numeric[:, a, b]
            scale = max(np.max(np.abs(n)), 1e-12)
            diff = float(np.max(np.abs(c - n)))
            want.append(((names[a], names[b]), float(np.max(np.abs(c))), float(np.max(np.abs(n))),
                         diff, diff / scale, diff / scale < perturbation.AUDIT_REL_TOL))
    got = [(v.component, v.max_abs_closed, v.max_abs_numeric, v.max_abs_diff, v.max_rel_diff, v.agrees)
           for v in audit.verdicts]
    assert got == want


def test_verify_all_takes_one_states_pass_per_suite(monkeypatch):
    calls = []

    def counted(parts, inner=families.states_of):
        calls.append(len(list(parts)))
        return inner(parts)

    monkeypatch.setattr(families, "states_of", counted)
    for name, passes in (("periodicity", 1), ("metric", 1), ("tables", 1), ("perturbation", 1), ("curvature", 0)):
        calls.clear()
        verify.run([name], 5)
        assert len(calls) == passes, name
    calls.clear()
    verify.run(list(verify.SUITES), 5)
    # 7 periodicity families; 10 table and domain parts; the metric
    # suite's 11 stencils (a gauge pair shares one); 4 +-beta families
    assert calls == [7, 11, 10, 4]


@pytest.mark.parametrize("value, text", [
    (0.1, "0.10000000000000001"),
    (np.float64(-2.5), "-2.5"),
    (float("nan"), "NaN"),
    (True, "true"),
    (np.bool_(False), "false"),
    (7, "7"),
    (np.int64(-3), "-3"),
    (None, "null"),
    ('a"b\\c', '"a\\"b\\\\c"'),
    ([1.5, "x", False, None, np.int64(2)], '[1.5, "x", false, null, 2]'),
    (np.array([[1.0, 2.5]]), "[\n  [1, 2.5]\n]"),
    ({"b": [], "a": {}}, '{\n  "a": {},\n  "b": []\n}'),
])
def test_dumps_prints_each_type_as_before(value, text):
    assert cli.dumps(value) == text


def load_corpus():
    spec = importlib.util.spec_from_file_location("report_corpus", CORPUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_corpus_fingerprints_three_reports(capsys):
    corpus = load_corpus()
    assert corpus.main(["--limit", "3"]) == 0
    first = capsys.readouterr().out
    assert corpus.main(["--limit", "3"]) == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert len(lines) == 3
    for seed, line in enumerate(lines):
        args, code, out_sha, err_sha = line.split("\t")
        assert args == f"verify --suite all --seed {seed}" and code == "0"
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            assert cli.main(args.split()) == 0
        assert out_sha == hashlib.sha256(report.getvalue().encode()).hexdigest()
        assert err_sha == hashlib.sha256(b"").hexdigest()
    # the corpus ends with the README's CLI examples
    examples = corpus.readme_examples()
    assert examples and corpus.corpus()[-len(examples):] == examples
    assert ["verify", "--suite", "all"] in examples
