"""Command-line interface: every pipeline as machine-readable JSON/CSV.

Subcommands: spectrum, classify, evolve, metric, curvature, perturb,
concurrence, verify.  The CLI only parses, calls the library and prints:
the verify suites, their check records and the options each reads
(SUITE_OPTIONS, from the suites' keywords) live in qorbits.verify.  Each
command takes only the options it reads (COMMAND_OPTIONS) plus --out, and
a single verify suite refuses a non-default value of a suite option it
does not read.  Reports embed the command's resolved options, are
byte-deterministic for a fixed seed (floats at 17 significant digits, keys
sorted), and exit nonzero only when a hard check fails (1), the
configuration is invalid (2) or a numerical routine fails (3).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import os
import re
import stat
import sys

import numpy as np

from . import __version__, verify
from .errors import QOrbitsError
from .model import HamiltonianParams, InitialCoefficients, classify, derive_params
from .hamiltonian import (
    analytic_spectrum,
    build_hamiltonian,
    match_states,
    numeric_spectrum,
    perturbed_eigenstates,
)
from .families import family_for_case
from .fubini_study import analytic_metric_c7, analytic_metric_case, numeric_fs_metric
from .curvature import (
    EXACT_CONDITION_LIMIT,
    UNIFORM_C7_SCALAR,
    MetricField,
    curvature_at,
    g0_uniform_field,
)
from .perturbation import numeric_beta_derivative, perturbed_metric_analytic
from .entanglement import CASE_FORMULA_STATUS, concurrence, concurrence_analytic, scan_concurrence

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
    Numpy arrays and scalars print as the Python values they hold."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {dumps(obj[k], indent + 2)}' for k in sorted(obj, key=str)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if not any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in obj):
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
    """Write a report to the --out path, or to stdout without one.  An
    existing regular file is rewritten in place and then cut to the report's
    length, which costs less than truncating it first; a pipe, tty or
    /dev/null takes a plain write."""
    if not out:
        sys.stdout.write(text)
        return
    with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


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


def parse_eta(text: str, warn) -> InitialCoefficients:
    vals = _parse_items(text, "--eta", "coefficient", _parse_complex)
    if len(vals) != 4:
        raise ValueError("--eta needs 4 comma-separated complex numbers")
    norm = math.sqrt(sum(abs(v) ** 2 for v in vals))
    if abs(norm - 1.0) > 1e-9:
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
    return family_for_case(classify(eta), eta, beta=args.beta)


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
    checks = [verify.record("analytic-vs-numeric-energies", dev, dev < 1e-12)]
    if args.beta != 0.0:
        h = build_hamiltonian(p)
        pert = perturbed_eigenstates(p)
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
        checks.append(verify.record("closed-form-agreement", dev, dev < 1e-6))
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
    rep = curvature_at(mf, xi)
    if rep.metric_condition > EXACT_CONDITION_LIMIT:
        warn(f"metric condition {rep.metric_condition:.3g} is above {EXACT_CONDITION_LIMIT:.0e}: "
             "the curvature may be far from exact (docs/discrepancies.md)")
    results = {
        "case": f.case.label,
        "point": rep.point,
        "scalar_curvature": rep.scalar,
        "ricci": rep.ricci,
        "metric_condition": rep.metric_condition,
        # the step curvature_at used: 0.0 on the exact Gauss route
        "h_curv": rep.h,
        "beta": f.beta,
        "note": rep.note,
    }
    checks = []
    eta = f.eta
    uniform = np.allclose(eta.abs2, 0.25, atol=1e-12)
    if f.case.label == "C7" and uniform and f.beta == 0.0:
        expected = UNIFORM_C7_SCALAR / args.gamma**2
        results["closed_form_scalar"] = expected
        # noise-free route: curvature of the closed-form metric field,
        # whose phase parameter is alpha2 - alpha1 in our convention
        alphas = eta.alphas
        fld = g0_uniform_field(float(alphas[1] - alphas[0]), args.gamma)
        rep_cf = curvature_at(fld, xi)
        results["closed_form_field_scalar"] = rep_cf.scalar
        results["closed_form_field_h_curv"] = rep_cf.h
        dev_cf = abs(rep_cf.scalar - expected) / abs(expected)
        checks.append(verify.record("uniform-c7-scalar-curvature", dev_cf, dev_cf < 1e-3))
        # the family field's curvature is exact: within 1.4e-10 of 14 over
        # 3000 random uniform points of metric condition up to 2e7
        dev = abs(rep.scalar - expected) / abs(expected)
        checks.append(verify.record("uniform-c7-scalar-curvature-numeric-field", dev, dev < 1e-6))
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


def cmd_verify(args, warn) -> dict:
    """Run the selected suites of qorbits.verify.  A single suite refuses a
    non-default value of a suite option it never reads, which would
    otherwise leave its report unchanged."""
    selected = list(verify.SUITES) if args.suite == "all" else [args.suite]
    for flag in dict.fromkeys(sum(verify.SUITE_OPTIONS.values(), ())):
        read = any(flag in verify.SUITE_OPTIONS[name] for name in selected)
        if not read and getattr(args, flag[2:].replace("-", "_")) != OPTIONS[flag]["default"]:
            readers = ", ".join(n for n, opts in verify.SUITE_OPTIONS.items() if flag in opts)
            raise ValueError(f"{flag} is read only by the suites {readers}, not {args.suite}")
    eta = None if args.eta is None else parse_eta(args.eta, warn)
    checks = verify.run(selected, args.seed, eta=eta, gamma=args.gamma, chi=args.chi)
    results = {
        "suites": selected,
        "n_checks": len(checks),
        "n_passed": sum(1 for c in checks if c["passed"]),
        "n_hard_failed": sum(map(verify.hard_failed, checks)),
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
    "--point": dict(default=None, help="chart point, comma separated"),
    "--gamma": dict(type=_positive_float, default=1.0, help="metric scale factor, above 0"),
    "--h-metric": dict(type=float, default=1e-5, help="step of the finite-difference metric"),
    "--grid": dict(default=None, help="grid spec name=a:b:n[,...]"),
    "--format": dict(choices=("json", "csv"), default="json", help="csv needs --grid"),
    "--seed": dict(type=int, default=1234),
    "--suite": dict(choices=("all", *verify.SUITES), default="all", help="verify suite"),
    "--chi": dict(type=_finite_float, default=0.0, help="relative phase of tables"),
    "--out": dict(default=None, help="output path (default stdout)"),
}
_FAMILY_POINT = ("--eta", "--beta", "--point")
# the options each command reads; every command also takes --out
COMMAND_OPTIONS = {
    "spectrum": ("--b", "--c", "--beta"),
    "classify": ("--eta",),
    "evolve": _FAMILY_POINT,
    "metric": _FAMILY_POINT + ("--gamma", "--h-metric"),
    "curvature": _FAMILY_POINT + ("--gamma",),
    "perturb": ("--eta", "--point", "--beta", "--gamma"),
    "concurrence": _FAMILY_POINT + ("--grid", "--format"),
    "verify": ("--seed", "--suite", "--eta", "--gamma", "--chi"),
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


def _join_negative_values(argv: list) -> list:
    """argv with each option's value that starts with '-' and a digit or '.'
    (--c -1,0,0, --chi -1e-3) joined to it as --c=-1,0,0: argparse reads
    such a token as an option unless it is a plain negative number."""
    joined = []
    for token in argv:
        if joined and joined[-1] in OPTIONS and re.match(r"-[\d.]", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
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
    return EXIT_CHECK_FAILED if any(map(verify.hard_failed, body["checks"])) else 0


if __name__ == "__main__":
    sys.exit(main())
