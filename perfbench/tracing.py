"""Span tracing of qorbits' public functions, installed from outside the
library.

Each traced function is replaced by a wrapper on every binding a caller can
look it up through: module-level functions on every qorbits module (and
module-level dict) that holds them, methods on their class.  While recording,
a wrapper appends one span (name, parent, start, end, tag) to in-memory
arrays; the tag carries a size the derived counts need (chart dimension,
grid points).  Self time is a span's duration minus the durations of its
child spans.  Wrappers that are installed but not recording call straight
through, so outputs are unchanged; run.py checks that they are bit-identical.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np

import qorbits
from qorbits import (
    cli,
    curvature,
    entanglement,
    families,
    fubini_study,
    hamiltonian,
    model,
    perturbation,
)

LAYERS = (
    "model",
    "hamiltonian",
    "families",
    "fubini_study",
    "curvature",
    "perturbation",
    "entanglement",
    "cli",
)
MODULES = (
    qorbits, model, hamiltonian, families, fubini_study, curvature,
    perturbation, entanglement, cli,
)


def _dim_of_point(args, kwargs):
    # numeric_fs_metric(family, xi, ...) and curvature_at(mf, xi, ...)
    return len(args[1] if len(args) > 1 else kwargs["xi"])


def _dim_of_field(args, kwargs):
    return args[0].dim


def _grid_points(args, kwargs):
    # scan_concurrence(f, grid): chart coordinates missing from grid are held
    family, grid = args[0], (args[1] if len(args) > 1 else kwargs["grid"])
    n = 1
    for name in family.chart:
        if name in grid:
            n *= int(grid[name][2])
    return n


# (span name, owner, attribute, tag function).  The layer is the span name's
# first component.
TRACED = (
    ("model.classify", model, "classify", None),
    ("hamiltonian.eigvec_pair", hamiltonian, "eigvec_pair", None),
    ("hamiltonian.perturbed_eigenstates", hamiltonian, "perturbed_eigenstates", None),
    ("families.state", families.StateFamily, "state", None),
    ("families.family_for_case", families, "family_for_case", None),
    ("families.check_periodicity", families, "check_periodicity", None),
    ("fubini_study.numeric_fs_metric", fubini_study, "numeric_fs_metric", _dim_of_point),
    ("curvature.curvature_at", curvature, "curvature_at", _dim_of_point),
    ("curvature.metric_field", curvature.MetricField, "__call__", _dim_of_field),
    ("perturbation.numeric_beta_derivative", perturbation, "numeric_beta_derivative", None),
    ("perturbation.audit_metric_correction", perturbation, "audit_metric_correction", None),
    ("entanglement.concurrence", entanglement, "concurrence", None),
    ("entanglement.scan_concurrence", entanglement, "scan_concurrence", _grid_points),
    (
        "entanglement.verify_max_entangled_tables",
        entanglement,
        "verify_max_entangled_tables",
        None,
    ),
    ("cli.cmd_verify", cli, "cmd_verify", None),
    ("cli.dumps", cli, "dumps", None),
)
# dumps calls itself through its module binding; only the outermost call
# becomes a span.
NON_REENTRANT = {"cli.dumps"}
DIMS = (3, 4)


def layer_metric_units():
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for name, *_ in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["entanglement.states_per_point"] = "states/point"
    for suffix in [""] + [f".{d}d" for d in DIMS]:
        units[f"fubini_study.states_per_metric{suffix}"] = "states/metric"
        units[f"curvature.metrics_per_curvature{suffix}"] = "metrics/call"
        units[f"curvature.distinct_metric_frac{suffix}"] = "frac"
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    # traced wall time / untraced wall time - 1, over the same cycle
    units["trace.overhead_frac"] = "frac"
    # from the workload's own checks: digits of the 90th-percentile deviation
    # of the numeric C7 metric from its closed form (0 where none is checked)
    units["fubini_study.metric_digits"] = "digits"
    return units


class Tracer:
    """Installs span-recording wrappers; records only while `recording`."""

    def __init__(self):
        self.names = [name for name, *_ in TRACED]
        self._id = {name: k for k, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_tag = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.errors = dict.fromkeys(LAYERS, 0)
        self.recording = False
        self._stack: list[int] = []
        self._patches: list = []
        # per curvature_at call: centre, step and the stencil offsets seen
        self._stencils: list = []
        # chart dimension -> distinct stencil points over all curvature_at calls
        self.distinct: dict[int, int] = {}

    # -- installation ------------------------------------------------------

    def install(self):
        for name, owner, attr, tag in TRACED:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original, tag), True)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, tag)
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper, True)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, original, wrapper, False)

    def _patch(self, owner, key, original, wrapper, attribute):
        if attribute:
            setattr(owner, key, wrapper)
        else:
            owner[key] = wrapper
        self._patches.append((owner, key, original, attribute))

    def uninstall(self):
        while self._patches:
            owner, key, original, attribute = self._patches.pop()
            if attribute:
                setattr(owner, key, original)
            else:
                owner[key] = original

    def _wrap(self, name, fn, tag_fn):
        nid = self._id[name]
        layer = name.split(".", 1)[0]
        reentrant = name not in NON_REENTRANT
        before = {
            "curvature.curvature_at": self._enter_curvature,
            "curvature.metric_field": self._enter_metric_field,
        }.get(name)
        after = self._exit_curvature if name == "curvature.curvature_at" else None
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.recording:
                return fn(*args, **kwargs)
            stack = tr._stack
            if not reentrant and stack and tr.span_name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(tr.span_name)
            tr.span_name.append(nid)
            tr.span_parent.append(stack[-1] if stack else -1)
            tr.span_tag.append(tag_fn(args, kwargs) if tag_fn else 0)
            tr.span_end.append(0.0)
            if before:
                before(args, kwargs)
            stack.append(idx)
            tr.span_start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except Exception:
                tr.errors[layer] += 1
                raise
            finally:
                tr.span_end[idx] = perf_counter()
                stack.pop()
                if after:
                    after()

        return traced

    # -- stencil accounting for curvature_at -------------------------------

    def _enter_curvature(self, args, kwargs):
        mf = args[0]
        xi = np.asarray(args[1] if len(args) > 1 else kwargs["xi"], dtype=float)
        h = args[2] if len(args) > 2 else kwargs.get("h", curvature.DEFAULT_CURVATURE_STEP)
        self._stencils.append((mf.dim, xi, float(h), set()))

    def _enter_metric_field(self, args, kwargs):
        if not self._stencils:
            return
        _, centre, h, seen = self._stencils[-1]
        # every stencil offset is a multiple of h/2, so rounding makes the
        # key exact regardless of float rounding in xi +- step
        offset = (np.asarray(args[1], dtype=float) - centre) / (0.5 * h)
        seen.add(tuple(np.rint(offset).astype(int).tolist()))

    def _exit_curvature(self):
        dim, _, _, seen = self._stencils.pop()
        self.distinct[dim] = self.distinct.get(dim, 0) + len(seen)

    # -- results -----------------------------------------------------------

    def _arrays(self):
        return (
            np.frombuffer(self.span_name, dtype=np.int32).astype(int),
            np.frombuffer(self.span_parent, dtype=np.int32).astype(int),
            np.frombuffer(self.span_tag, dtype=np.int32).astype(int),
            np.frombuffer(self.span_end, dtype=float)
            - np.frombuffer(self.span_start, dtype=float),
        )

    def _nearest(self, names, parent, target):
        """Index of each span's nearest ancestor named `target`, or -1."""
        tid = self._id[target]
        out = np.full(len(names), -1)
        cur = parent.copy()
        live = cur >= 0
        while live.any():
            hit = np.zeros_like(live)
            hit[live] = names[cur[live]] == tid
            out[hit] = cur[hit]
            live &= ~hit
            cur[live] = parent[cur[live]]
            live &= cur >= 0
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metric values, keyed as in layer_metric_units()."""
        names, parent, tag, dur = self._arrays()
        n_names = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = np.bincount(names, weights=dur - child, minlength=n_names)
        calls = np.bincount(names, minlength=n_names)
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[k])
            out[f"{name}.self_s"] = float(self_s[k])

        def ratio(num, den):
            return float(num) / den if den else 0.0

        def under(child_name, parent_name):
            """Tags of the nearest enclosing parent span of every child span,
            and tags of every parent span."""
            pid = self._id[parent_name]
            anc = self._nearest(names, parent, parent_name)
            sel = (names == self._id[child_name]) & (anc >= 0)
            return tag[anc[sel]], tag[names == pid]

        state_tags, scan_tags = under("families.state", "entanglement.scan_concurrence")
        out["entanglement.states_per_point"] = ratio(len(state_tags), scan_tags.sum())
        state_tags, metric_tags = under("families.state", "fubini_study.numeric_fs_metric")
        field_tags, curv_tags = under("curvature.metric_field", "curvature.curvature_at")
        for suffix, dims in [("", None)] + [(f".{d}d", d) for d in DIMS]:
            def count(tags):
                return len(tags) if dims is None else int(np.sum(tags == dims))

            distinct = sum(self.distinct.values()) if dims is None else self.distinct.get(dims, 0)
            out[f"fubini_study.states_per_metric{suffix}"] = ratio(
                count(state_tags), count(metric_tags)
            )
            out[f"curvature.metrics_per_curvature{suffix}"] = ratio(
                count(field_tags), count(curv_tags)
            )
            out[f"curvature.distinct_metric_frac{suffix}"] = ratio(distinct, count(field_tags))
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out

    def write_spans(self, path):
        """Write the spans as tab-separated lines: id, parent, name, start,
        end (perf_counter seconds), tag."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\ttag\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]!r}\t{self.span_end[i]!r}\t{self.span_tag[i]}\n"
                )
