"""Command-line interface: every pipeline as machine-readable JSON/CSV.

Subcommands: spectrum, classify, evolve, metric, curvature, perturb,
concurrence, verify.  Each takes only the options it reads (COMMAND_OPTIONS)
plus --out, and a single verify suite refuses a non-default value of a
suite option it does not read (SUITE_OPTIONS).  Reports embed the
command's resolved options, are byte-deterministic for a fixed seed (floats
at 17 significant digits, keys sorted), and exit nonzero only when a hard
check fails (1), the configuration is invalid (2) or a numerical routine
fails (3).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import sys

import numpy as np

from . import __version__
from .errors import QOrbitsError
from .model import (
    HamiltonianParams,
    InitialCoefficients,
    classify,
    derive_params,
    unit_row,
)
from .hamiltonian import (
    analytic_spectrum,
    build_hamiltonian,
    match_states,
    numeric_spectrum,
    perturbed_eigenstates,
)
from .families import (
    check_periodicity,
    constrained_two_param_family,
    family_for_case,
    sliced_family,
)
from .fubini_study import (
    analytic_metric_c7,
    analytic_metric_case,
    analytic_metrics_c7,
    analytic_metrics_case,
    numeric_fs_metric,
    numeric_fs_metrics,
    phase_twisted,
    pushforwards_c7,
    tangent_fs_metrics,
    two_param_metric,
    two_param_metric_printed_offdiag,
)
from .curvature import (
    MetricField,
    curvature_at,
    g0_uniform_field,
    gauss_curvature,
    perturbed_scalar_curvature_closed_form,
    sphere_metric_field,
)
from .perturbation import (
    audit_metric_correction,
    numeric_beta_derivative,
    perturbed_metric_analytic,
)
from .entanglement import (
    CASE_FORMULA_STATUS,
    concurrence,
    concurrence_analytic,
    concurrences,
    scan_concurrence,
    verify_max_entangled_tables,
)

EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.
    Numpy arrays and scalars print as the Python values they hold, complex
    numbers as {"im": ..., "re": ...}."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag}
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {dumps(obj[k], indent + 2)}' for k in sorted(obj, key=str)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if not any(isinstance(v, (dict, list, tuple, complex, np.ndarray)) for v in obj):
            return "[" + ", ".join(dumps(v) for v in obj) + "]"
        items = [f"{pad}  {dumps(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _emit(text: str, out) -> None:
    """Write a report to the --out path, or to stdout without one."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check(name: str, deviation, passed, soft: bool = False) -> dict:
    """One check record.  A soft check marks a documented catalog
    discrepancy: its failure is reported but does not fail the run."""
    return {"name": name, "passed": passed, "deviation": deviation, "soft": soft}


def _hard_failed(check: dict) -> bool:
    return not check["passed"] and not check["soft"]


# ---------------------------------------------------------------------------
# argument parsing helpers

def _parse_complex(token: str) -> complex:
    """Accept 're+imj' python literals or 'mag@phase' polar form."""
    token = token.strip()
    if "@" in token:
        mag, phase = token.split("@", 1)
        return float(mag) * cmath.exp(1j * float(phase))
    return complex(token)


def _parse_items(text: str, option: str, noun: str, parse) -> list:
    """The comma-separated items of an option's text, each read by parse;
    an item parse refuses raises ValueError naming the option, the item's
    index and its text."""
    vals = []
    for k, part in enumerate(text.split(",")):
        try:
            vals.append(parse(part))
        except ValueError:
            raise ValueError(f"{option} {noun} {k} is not a number: {part!r}") from None
    return vals


def parse_eta(text: str, warn=None) -> InitialCoefficients:
    vals = _parse_items(text, "--eta", "coefficient", _parse_complex)
    if len(vals) != 4:
        raise ValueError("--eta needs 4 comma-separated complex numbers")
    norm = math.sqrt(sum(abs(v) ** 2 for v in vals))
    if abs(norm - 1.0) > 1e-9 and warn is not None:
        warn(f"eta normalized (input norm was {norm:.12g})")
    return InitialCoefficients.normalized(*vals)


def parse_grid(text: str) -> dict:
    grid = {}
    for part in text.split(","):
        name, _, spec = part.partition("=")
        name = name.strip()
        if name in grid:
            raise ValueError(f"grid repeats coordinate {name!r}")
        try:
            a, b, n = spec.split(":")
            grid[name] = (float(a), float(b), int(n))
        except ValueError:
            raise ValueError(f"grid part {part!r} is not {name}=start:stop:count, "
                             "with an integer count") from None
    return grid


def _finite_float(text: str) -> float:
    """argparse type of --beta and --chi: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"needs a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type of --gamma: a finite float above 0 (0 zeroes every metric)."""
    if (value := _finite_float(text)) <= 0.0:
        raise argparse.ArgumentTypeError(f"needs a number above 0, got {text!r}")
    return value


def _params_from_args(args) -> HamiltonianParams:
    vals = _parse_items(args.c, "--c", "coupling", float)
    if len(vals) != 3:
        raise ValueError(f"--c needs 3 comma-separated numbers c1,c2,c3, got {args.c!r}")
    return HamiltonianParams(args.b, *vals, beta=args.beta)


def _eta(args, warn) -> InitialCoefficients:
    if args.eta is None:
        raise ValueError("--eta is required")
    return parse_eta(args.eta, warn)


def _family_from_args(args, warn):
    eta = _eta(args, warn)
    case = classify(eta)
    if args.case is not None and args.case != case.label:
        raise ValueError(f"--case {args.case} but coefficients classify as {case.label}")
    return family_for_case(case, eta, beta=args.beta)


def _point(args, dim):
    if args.point is None:
        raise ValueError("--point is required for this command")
    vals = _parse_items(args.point, "--point", "coordinate", float)
    if len(vals) != dim:
        raise ValueError(f"--point needs {dim} coordinates for this chart")
    for k, v in enumerate(vals):
        if not math.isfinite(v):
            raise ValueError(f"--point coordinate {k} is not finite: {v}")
    return np.array(vals)


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(args, warn) -> dict:
    p = _params_from_args(args)
    p0 = HamiltonianParams(p.b, p.c1, p.c2, p.c3)
    h0 = build_hamiltonian(p0)
    spec = analytic_spectrum(p0)
    num = numeric_spectrum(h0)
    residuals = spec.residuals(h0)
    perm = match_states(spec.states, num.states)
    overlap = np.abs(spec.states.conj() @ num.states.T)
    dev = float(np.max(np.abs(np.sort(spec.energies) - num.energies)))
    results = {
        "analytic_energies": spec.energies,
        "numeric_energies_ascending": num.energies,
        "analytic_sorted": np.sort(spec.energies),
        "eigenvector_residuals": residuals,
        "overlap_matrix": overlap,
        "numeric_index_matching_analytic": perm,
        "derived": vars(derive_params(p0)).copy(),
        "beta": args.beta,
    }
    checks = [_check("analytic-vs-numeric-energies", dev, dev < 1e-12)]
    if args.beta != 0.0:
        h = build_hamiltonian(p)
        pert = perturbed_eigenstates(p0, args.beta)
        results["perturbation_residuals"] = pert.residuals(h)
        results["perturbed_numeric_energies_ascending"] = numeric_spectrum(h).energies
    return {"results": results, "checks": checks}


def cmd_classify(args, warn) -> dict:
    eta = _eta(args, warn)
    case = classify(eta)
    return {
        "results": {
            "case": case.label,
            "l": case.l,
            "j": case.j,
            "dimension": case.dimension,
            "chart": list(case.chart),
            "eta12_plus": eta.eta12_plus,
            "eta12_minus": eta.eta12_minus,
            "eta34_plus": eta.eta34_plus,
            "eta34_minus": eta.eta34_minus,
        },
        "checks": [],
    }


def cmd_evolve(args, warn) -> dict:
    f = _family_from_args(args, warn)
    xi = _point(args, f.dim)
    state = f.state(xi)
    return {
        "results": {
            "case": f.case.label,
            "chart": list(f.chart),
            "state_re": state.real,
            "state_im": state.imag,
            "norm": float(np.linalg.norm(state)),
            "concurrence": concurrence(state),
            "beta": f.beta,
        },
        "checks": [],
    }


def cmd_metric(args, warn) -> dict:
    f = _family_from_args(args, warn)
    xi = _point(args, f.dim)
    gn = numeric_fs_metric(f, xi, gamma=args.gamma, h=args.h_metric)
    results = {
        "case": f.case.label,
        "chart": list(gn.coords),
        "numeric": gn.entries,
        "gamma": args.gamma,
        "beta": f.beta,
        "degenerate_axes": list(gn.degenerate_axes),
    }
    checks = []
    if f.case.label == "C7" and f.beta == 0.0:
        ga = analytic_metric_c7(f.eta, xi, args.gamma)
        dev = float(np.max(np.abs(ga.entries - gn.entries)))
        results["closed_form"] = ga.entries
        results["max_deviation"] = dev
        checks.append(_check("closed-form-agreement", dev, dev < 1e-6))
    elif f.case.label == "C7":
        # perturbed closed form, informational: two of its ten correction
        # components carry documented transcription slips
        pm = perturbed_metric_analytic(f.eta, xi, args.gamma, f.beta)
        results["closed_form"] = pm.entries
        results["max_deviation"] = float(np.max(np.abs(pm.entries - gn.entries)))
    elif f.beta == 0.0:
        ga = analytic_metric_case(f, xi, args.gamma)
        results["closed_form"] = ga.entries
        results["closed_form_coords"] = list(ga.coords)
    return {"results": results, "checks": checks}


def cmd_curvature(args, warn) -> dict:
    f = _family_from_args(args, warn)
    xi = _point(args, f.dim)
    mf = MetricField.from_family(f, gamma=args.gamma)
    rep = curvature_at(mf, xi, h=args.h_curv)
    results = {
        "case": f.case.label,
        "point": rep.point,
        "scalar_curvature": rep.scalar,
        "ricci": rep.ricci,
        "metric_condition": rep.metric_condition,
        "h_curv": args.h_curv,
        "beta": f.beta,
        "note": rep.note,
    }
    checks = []
    eta = f.eta
    uniform = np.allclose(eta.abs2, 0.25, atol=1e-12)
    if f.case.label == "C7" and uniform and f.beta == 0.0:
        expected = 14.0 / args.gamma**2
        results["closed_form_scalar"] = expected
        # noise-free route: curvature of the closed-form metric field,
        # whose phase parameter is alpha2 - alpha1 in our convention
        alphas = eta.alphas
        fld = g0_uniform_field(float(alphas[1] - alphas[0]), args.gamma)
        rep_cf = curvature_at(fld, xi, h=args.h_curv)
        results["closed_form_field_scalar"] = rep_cf.scalar
        dev_cf = abs(rep_cf.scalar - expected) / abs(expected)
        checks.append(_check("uniform-c7-scalar-curvature", dev_cf, dev_cf < 1e-3))
        # the family field's curvature is exact: within 1.4e-10 of 14 over
        # 3000 random uniform points of metric condition up to 2e7
        dev = abs(rep.scalar - expected) / abs(expected)
        checks.append(_check("uniform-c7-scalar-curvature-numeric-field", dev, dev < 1e-6))
    return {"results": results, "checks": checks}


def cmd_perturb(args, warn) -> dict:
    eta = _eta(args, warn)
    case = classify(eta)
    if case.label != "C7":
        raise ValueError("perturb expects a C7 coefficient set (full chart)")
    xi = _point(args, 4)
    pm = perturbed_metric_analytic(eta, xi, gamma=args.gamma, beta=args.beta)
    dgdb = numeric_beta_derivative(eta, xi, gamma=args.gamma)
    dev = np.abs(pm.correction - dgdb)
    results = {
        "point": xi,
        "beta": args.beta,
        "base": pm.base.entries,
        "correction_closed_form": pm.correction,
        "correction_numeric_dg_dbeta": dgdb,
        "componentwise_abs_deviation": dev,
        "assembled": pm.entries,
    }
    return {"results": results, "checks": []}


def cmd_concurrence(args, warn) -> dict | None:
    if args.format == "csv" and args.grid is None:
        raise ValueError("--format csv needs --grid")
    if args.grid is not None and args.point is not None:
        raise ValueError("--point is not read with --grid")
    f = _family_from_args(args, warn)
    if args.grid is None:
        xi = _point(args, f.dim)
        state = f.state(xi)
        results = {
            "case": f.case.label,
            "point": xi,
            "concurrence": concurrence(state),
            "formula_status": list(CASE_FORMULA_STATUS[f.case.label]),
        }
        try:
            results["closed_form"] = concurrence_analytic(f.case, f.eta, xi)
        except ValueError:
            results["closed_form"] = None
        return {"results": results, "checks": []}
    grid = parse_grid(args.grid)
    scan = scan_concurrence(f, grid)
    if args.format == "csv":
        rows = np.column_stack([scan.coords, scan.values]).tolist()
        lines = [",".join(f.chart + ("concurrence",))]
        lines += [",".join(map(_fmt_float, row)) for row in rows]
        _emit("\n".join(lines) + "\n", args.out)
        return None
    best_xi, best_val = scan.argmax
    return {
        "results": {
            "case": f.case.label,
            "grid": {k: list(v) for k, v in grid.items()},
            "values": scan.values,
            "argmax_coords": best_xi,
            "argmax_value": best_val,
        },
        "checks": [],
    }


# ---------------------------------------------------------------------------
# verify suites

DEFAULT_CASE_ETAS = {
    "C1": "0,0,0.8,0.6",
    "C2": "1,0,0,0",
    "C3": "0.8,0.6,0,0",
    "C4": "0.8,0,0.6,0",
    "C5": "0.6,0.6,0.5291502622129182,0",
    "C6": "0.6,0,0.565685424949238,0.565685424949238",
    "C7": "0.5,0.5,0.5,0.5",
}


@functools.lru_cache(maxsize=None)
def _default_family(label: str):
    """The beta = 0 family of DEFAULT_CASE_ETAS[label], built once per
    process: the suites only read it."""
    eta = parse_eta(DEFAULT_CASE_ETAS[label], None)
    return family_for_case(classify(eta), eta)


def _suite_periodicity(args, rng, checks):
    if args.eta is not None:
        eta = parse_eta(args.eta, None)
        fams = [family_for_case(classify(eta), eta)]
    else:
        fams = [_default_family(label) for label in DEFAULT_CASE_ETAS]
    for f in fams:
        rep = check_periodicity(f, n_points=20, rng=rng)
        for chk in rep.checks:
            name = f"periodicity-{f.case.label}-{'+'.join(chk.shift)}"
            checks.append(_check(name, chk.max_phase_error, chk.passed))


def _suite_metric(args, rng, checks):
    gamma = args.gamma
    # closed form vs numeric over random C7 points, each with its own
    # coefficients, from one batch of stencil states and one closed-form call
    etas, us = [], []
    for _ in range(50):
        etas.append(unit_row(rng.normal(size=4) + 1j * rng.normal(size=4)))
        us.append(rng.random(4))
    # lo + (hi - lo) u is what rng.uniform(lo, hi) computes: the points of
    # four uniform draws per row
    lo, hi = np.array([-2.0, -1.2, -2.0, -2.0]), np.array([2.0, 1.2, 2.0, 2.0])
    xis, etas, f7 = lo + (hi - lo) * np.array(us), np.array(etas), _default_family("C7")
    gn = numeric_fs_metrics(f7, xis, gamma, args.h_metric, etas=etas)
    worst = float(np.max(np.abs(gn - analytic_metrics_c7(etas, xis, gamma))))
    checks.append(_check("metric-c7-oracle-agreement", worst, worst < 1e-6))
    # diagonalization, at points clear of K = 0, as one batch
    etas, omegas = [], []
    while len(etas) < 20:
        eta = unit_row(rng.normal(size=4) + 1j * rng.normal(size=4))
        omega = rng.uniform(-2, 2)
        if abs((eta[0] * np.conj(eta[1]) * np.exp(-2j * omega)).real) >= 0.05:
            etas.append(eta)
            omegas.append(omega)
    xs = np.column_stack([omegas, np.tile([0.3, 0.2, 0.4], (20, 1))])
    gp = pushforwards_c7(etas, xs, gamma)
    worst_off = float(np.max(np.abs(gp[:, ~np.eye(4, dtype=bool)])))
    gd = analytic_metrics_case(f7, xs, gamma, etas)
    worst_diag = float(np.max(np.abs(np.diagonal(gp - gd, axis1=1, axis2=2))))
    checks.append(_check("diagonalization-offdiagonal", worst_off, worst_off < 1e-10))
    checks.append(_check("diagonalization-diagonal", worst_diag, worst_diag < 1e-10))
    # gauge invariance on every case family
    worst = 0.0
    for label in DEFAULT_CASE_ETAS:
        f = _default_family(label)
        ft = phase_twisted(f, lambda xs: xs.sum(axis=1))
        xi = rng.uniform(0.2, 1.0, size=f.dim)
        dev = float(
            np.max(
                np.abs(
                    numeric_fs_metric(f, xi, gamma=gamma).entries
                    - numeric_fs_metric(ft, xi, gamma=gamma).entries
                )
            )
        )
        worst = max(worst, dev)
    checks.append(_check("metric-gauge-invariance", worst, worst < 1e-8))
    # flat slice with the field off (phi frozen)
    fs = sliced_family(_default_family("C7"), {"phi": 0.0})
    pts = [[w, c3, cp] for w in (0.2, 0.9) for c3 in (0.1, 0.8) for cp in (0.3, 1.2)]
    mats = numeric_fs_metrics(fs, pts, gamma=gamma)
    var = float(np.max(np.abs(mats - mats[0])))
    checks.append(_check("flat-slice-constant-metric", var, var < 1e-9))
    # printed-vs-oracle ratio audits for the reduced-case closed forms
    f4 = _default_family("C4")
    gn4 = numeric_fs_metric(f4, np.array([0.4, 1.1]), gamma=gamma).entries
    ga4 = analytic_metric_case(f4, np.array([0.4, 1.1]), gamma).entries
    ratio = float(ga4[1, 1] / gn4[1, 1])
    dev = abs(ratio - 9)
    checks.append(_check("c4-gcc-printed-vs-oracle-ratio-9", dev, dev < 1e-6, soft=True))
    # two-parameter manifold: derived pullback vs numeric, printed offdiag ratio
    eta2p = InitialCoefficients.normalized(0.7, 0.4, 0.5, 0.3)
    fam = constrained_two_param_family(0.7, eta2p)
    gn = numeric_fs_metric(fam, np.array([0.6, 0.8]), gamma=gamma).entries
    ga = two_param_metric(0.7, eta2p, gamma).entries
    dev = float(np.max(np.abs(gn - ga)))
    checks.append(_check("two-param-pullback-vs-oracle", dev, dev < 1e-6))
    printed = two_param_metric_printed_offdiag(0.7, eta2p, gamma)
    dev = abs(printed / ga[0, 1] - 2.0)
    checks.append(_check("two-param-printed-offdiag-ratio-2", dev, dev < 1e-9, soft=True))


def _table_samples(f, rng):
    """200 chart points on the agreement domain of the case's closed-form
    concurrence, from one rng.random draw. low + (high - low) * u is what
    rng.uniform(low, high) computes, so the points reproduce, value for
    value and in stream order, per-row uniform(-3, 3) coordinates followed
    by a uniform(-1.4, 1.4) redraw of phi where the formula needs
    cos phi > 0."""
    label = f.case.label
    status = CASE_FORMULA_STATUS[label]
    redraw_phi = "phi" in f.chart and "cos_phi_pos" in status or label == "C5"
    u = rng.random((200, f.dim + int(redraw_phi)))
    xs = -3 + 6 * u[:, :f.dim]
    if redraw_phi:
        xs[:, f.chart.index("phi")] = -1.4 + 2.8 * u[:, -1]
    if label == "C5":
        # the printed sin(omega) equals the oracle's sin(2 omega) nowhere
        # generic; sample the locus where both vanish
        xs[:, f.chart.index("omega")] = 0.0
    return xs


def _suite_tables(args, rng, checks):
    chi = args.chi
    def polar(mag, phase):
        return mag * cmath.exp(1j * phase)
    configs = {
        "C5": InitialCoefficients.normalized(0.5, 0.5, 0.0, polar(math.sqrt(0.5), chi)),
        "C6": InitialCoefficients.normalized(
            0.0, 0.6, polar(math.sqrt(0.32), chi), polar(math.sqrt(0.32), chi)
        ),
        "C7": InitialCoefficients.normalized(
            0.5, 0.5, polar(0.5, chi), polar(0.5, chi)
        ),
    }
    for label, eta in configs.items():
        f = family_for_case(classify(eta), eta)
        for row in verify_max_entangled_tables(f, chi):
            # documented C5 defects: the omega = pi/2 rows fail for every
            # chi; the two rows with the un-doubled phase fail off chi = 0
            defective = label == "C5" and (
                row.row.startswith("phi=0")
                or row.row.startswith("phi=pi,")
                or (
                    chi % (2 * math.pi) != 0.0
                    and row.row in ("phi=pi/2, j even", "phi=3pi/2, j odd")
                )
            )
            dev = abs(row.measured_concurrence - 1.0)
            checks.append(_check(f"table-{label}-{row.row}", dev, row.passed, soft=defective))
    # closed-form concurrence against the direct oracle on agreement domains
    for label in DEFAULT_CASE_ETAS:
        f = _default_family(label)
        xs = _table_samples(f, rng)
        closed = concurrence_analytic(f.case, f.eta, xs)
        worst = float(np.max(np.abs(closed - concurrences(f.states(xs)))))
        checks.append(_check(f"concurrence-closed-form-{label}-on-domain", worst, worst < 1e-10))


def _suite_perturbation(args, rng, checks):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    eta = InitialCoefficients.normalized(*v)
    pts = [
        np.array(
            [rng.uniform(0.4, 1.6), rng.uniform(-1.2, 1.2),
             rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4)]
        )
        for _ in range(16)
    ]
    audit = audit_metric_correction(eta, pts, gamma=args.gamma)
    known_bad = ({"omega", "phi"}, {"c3", "c_plus"})
    for vd in audit.verdicts:
        name = f"perturbed-metric-{vd.component[0]}-{vd.component[1]}"
        soft = set(vd.component) in known_bad
        checks.append(_check(name, vd.max_rel_diff, vd.agrees, soft=soft))


def _suite_curvature(args, rng, checks):
    gamma = args.gamma
    rep = curvature_at(sphere_metric_field(0.5 * gamma), np.array([1.1, 0.7]))
    dev = abs(rep.scalar - 8.0 / gamma**2) * gamma**2 / 8.0
    checks.append(_check("sphere-curvature", dev, dev < 1e-6))
    fld = g0_uniform_field(0.0, gamma)
    rep = curvature_at(fld, np.array([0.35, 0.3, 0.2, 0.4]))
    expected = 14.0 / gamma**2
    dev = abs(rep.scalar - expected) / expected
    checks.append(_check("uniform-c7-scalar-14", dev, dev < 1e-3))
    # closed-form perturbed curvature at beta = 0 against the constant
    for w in (0.05, 0.35, 0.7):
        val = perturbed_scalar_curvature_closed_form(w, 0.0, gamma)
        dev = abs(val - expected) / expected
        name = f"perturbed-curvature-closed-form-beta0-w{w}"
        checks.append(_check(name, dev, dev < 1e-3, soft=True))
    # exact Gauss curvature of a random C7 family against the Richardson
    # stencil on its tangent-metric field, at a well-conditioned point
    f, xi = _conditioned_c7_point(rng, gamma)
    stencil = curvature_at(
        MetricField(4, lambda xs: tangent_fs_metrics(f, xs, gamma)), xi
    ).scalar
    dev = abs(gauss_curvature(f, xi, gamma).scalar - stencil) / abs(stencil)
    checks.append(_check("curvature-gauss-vs-stencil", dev, dev < 1e-6))


def _conditioned_c7_point(rng, gamma):
    """A random C7 family and the first of 16 random points (phi in
    [-1.2, 1.2], other coordinates in [-2, 2]) whose metric condition number
    is at most 100, redrawing the family if none is (13 of seeds 0-399
    redraw, none more than twice)."""
    lo = np.array([-2.0, -1.2, -2.0, -2.0])
    for _ in range(20):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        eta = InitialCoefficients.normalized(*v)
        f = family_for_case(classify(eta), eta)
        xs = rng.uniform(lo, -lo, size=(16, 4))
        evals = np.linalg.eigvalsh(tangent_fs_metrics(f, xs, gamma))
        ok = (evals[:, 0] > 0.0) & (evals[:, -1] <= 100.0 * evals[:, 0])
        if ok.any():
            return f, xs[np.argmax(ok)]
    raise RuntimeError("no C7 point with metric condition <= 100 in 20 draws")


SUITES = {
    "periodicity": _suite_periodicity,
    "metric": _suite_metric,
    "tables": _suite_tables,
    "perturbation": _suite_perturbation,
    "curvature": _suite_curvature,
}
# the options each suite reads; --suite all takes every one of them
SUITE_OPTIONS = {
    "periodicity": ("--eta",),
    "metric": ("--gamma", "--h-metric"),
    "tables": ("--chi",),
    "perturbation": ("--gamma",),
    "curvature": ("--gamma",),
}


def _refuse_unread_suite_options(args) -> None:
    """Refuse a non-default value of an option the selected suite never
    reads, which would otherwise leave its report unchanged."""
    for flag in dict.fromkeys(sum(SUITE_OPTIONS.values(), ())):
        if flag in SUITE_OPTIONS[args.suite]:
            continue
        if getattr(args, flag[2:].replace("-", "_")) != OPTIONS[flag]["default"]:
            readers = ", ".join(name for name, opts in SUITE_OPTIONS.items() if flag in opts)
            raise ValueError(f"{flag} is read only by the suites {readers}, not {args.suite}")


def cmd_verify(args, warn) -> dict:
    if args.suite != "all":
        _refuse_unread_suite_options(args)
    rng = np.random.default_rng(args.seed)
    checks: list[dict] = []
    selected = list(SUITES) if args.suite == "all" else [args.suite]
    for name in selected:
        SUITES[name](args, rng, checks)
    results = {
        "suites": selected,
        "n_checks": len(checks),
        "n_passed": sum(1 for c in checks if c["passed"]),
        "n_hard_failed": sum(map(_hard_failed, checks)),
        "n_soft_flagged": sum(1 for c in checks if not c["passed"] and c["soft"]),
    }
    return {"results": results, "checks": checks}


COMMANDS = {
    "spectrum": cmd_spectrum,
    "classify": cmd_classify,
    "evolve": cmd_evolve,
    "metric": cmd_metric,
    "curvature": cmd_curvature,
    "perturb": cmd_perturb,
    "concurrence": cmd_concurrence,
    "verify": cmd_verify,
}

# every option as argparse keywords; each command takes the ones it reads
OPTIONS = {
    "--b": dict(type=float, default=0.0, help="z-field strength"),
    "--c": dict(default="1,0,0", help="couplings c1,c2,c3"),
    "--beta": dict(type=_finite_float, default=0.0, help="x-field perturbation"),
    "--eta": dict(default=None, help="initial coefficients e1,e2,e3,e4"),
    "--case": dict(default=None, help="case label C1..C7 (checked)"),
    "--point": dict(default=None, help="chart point, comma separated"),
    "--gamma": dict(type=_positive_float, default=1.0, help="metric scale factor, above 0"),
    "--h-metric": dict(type=float, default=1e-5, help="step of the finite-difference metric"),
    "--h-curv": dict(
        type=float, default=1e-3,
        help="step of the finite-difference curvature of closed-form metric "
             "fields; family curvature is exact (Gauss equation) and has no step",
    ),
    "--grid": dict(default=None, help="grid spec name=a:b:n[,...]"),
    "--format": dict(choices=("json", "csv"), default="json", help="csv needs --grid"),
    "--seed": dict(type=int, default=1234),
    "--suite": dict(choices=("all", *SUITES), default="all", help="verify suite"),
    "--chi": dict(type=_finite_float, default=0.0, help="relative phase of tables"),
    "--out": dict(default=None, help="output path (default stdout)"),
}
_FAMILY_POINT = ("--eta", "--case", "--beta", "--point")
# the options each command reads; every command also takes --out
COMMAND_OPTIONS = {
    "spectrum": ("--b", "--c", "--beta"),
    "classify": ("--eta",),
    "evolve": _FAMILY_POINT,
    "metric": _FAMILY_POINT + ("--gamma", "--h-metric"),
    "curvature": _FAMILY_POINT + ("--gamma", "--h-curv"),
    "perturb": ("--eta", "--point", "--beta", "--gamma"),
    "concurrence": _FAMILY_POINT + ("--grid", "--format"),
    "verify": ("--seed", "--suite", "--eta", "--gamma", "--h-metric", "--chi"),
}
# parser defaults that differ from OPTIONS, per command: perturb evaluates
# its first-order correction at a small nonzero beta
COMMAND_DEFAULTS = {"perturb": {"beta": 1e-4}}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, so repeated in-process main calls share it.
    Abbreviated options are refused, so that --b cannot stand for --beta
    in a command that takes --beta but not --b."""
    parser = argparse.ArgumentParser(
        prog="qorbits",
        description="Geometry and entanglement of two-qubit unitary orbits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in COMMAND_OPTIONS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in options + ("--out",):
            p.add_argument(flag, **OPTIONS[flag])
        p.set_defaults(**COMMAND_DEFAULTS.get(name, {}))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_CONFIG if exc.code not in (0, None) else 0
    warnings: list[str] = []
    try:
        body = COMMANDS[args.command](args, warnings.append)
    except (ValueError, QOrbitsError) as exc:
        sys.stderr.write(f"error: invalid configuration: {exc}\n")
        return EXIT_BAD_CONFIG
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        sys.stderr.write(f"error: numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    if body is None:  # csv path already emitted
        return 0
    report = {
        "config": {k: v for k, v in vars(args).items() if k != "out"},
        "results": body["results"],
        "checks": body["checks"],
        "version": __version__,
    }
    if warnings:
        report["warnings"] = warnings
    _emit(dumps(report) + "\n", args.out)
    return EXIT_CHECK_FAILED if any(map(_hard_failed, body["checks"])) else 0


if __name__ == "__main__":
    sys.exit(main())
