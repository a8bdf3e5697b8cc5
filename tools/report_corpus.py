"""Fingerprint a fixed corpus of qorbits reports, in one process.

    python tools/report_corpus.py [--limit N] > corpus.txt

The corpus runs through qorbits.cli.main, in this order:

- verify --suite all on seeds 0-399;
- verify --suite all on seeds 0-59 with --gamma 0.7 --chi 0.3;
- verify --suite all on seeds 0-59 with --eta 0.6,0.3+0.4j,0.5,-0.2j;
- metric on each default case set of qorbits.verify at a fixed point, with
  the default options, --h-metric 1e-4 and --gamma 0.7; metric on the
  generic C7 set at --beta 1e-3, and at a resonant point of it (a
  refusal); perturb on the generic C7 set;
- concurrence scans of the perturbed (beta != 0) families: the generic C7
  set, and the C6 and C1 default sets of qorbits.verify, as CSV;
- verify --suite perturbation at --gamma 1e-7, where the refuted
  components must stay flagged, and at --gamma 1e-200 (a refusal);
- every qorbits example line of the README's CLI section.

Each report prints one tab-separated line: the arguments, the exit code,
and the sha256 of what the command wrote to stdout (the report) and to
stderr.  The qorbits imported is the one under this checkout's src/, so a
copy of this script in another checkout fingerprints that checkout, and
two checkouts give the same output where every report is byte-identical:
compare them with diff.  --limit runs only the first N reports.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qorbits import cli, verify  # noqa: E402

OPTION_SETS = (
    ((), range(400)),
    (("--gamma", "0.7", "--chi", "0.3"), range(60)),
    (("--eta", "0.6,0.3+0.4j,0.5,-0.2j"), range(60)),
)
GENERIC_ETA = "0.6,0.3+0.4j,0.5,-0.2j"
# the metric point; a case of chart dimension dim takes its first dim values
METRIC_POINT = ("0.7", "0.3", "0.2", "0.4")
METRIC_OPTIONS = ((), ("--h-metric", "1e-4"), ("--gamma", "0.7"))
METRIC_EXTRAS = (
    ["metric", "--eta", GENERIC_ETA, "--beta", "1e-3", "--point", "0.7,0.3,1.9,-0.7"],
    # 2 c3 - c_plus + omega = 0: the perturbed states refuse the point
    ["metric", "--eta", GENERIC_ETA, "--beta", "1e-3", "--point", "0.9,0.3,0.4,1.7"],
    ["perturb", "--eta", GENERIC_ETA, "--point", "0.8,0.3,0.25,0.45", "--beta", "1e-4"],
)
SCAN_AND_SCALE_EXTRAS = (
    ["concurrence", "--eta", GENERIC_ETA, "--beta", "1e-3", "--grid",
     "omega=0.2:1:4,phi=-3:3:7,c3=1.6:2.4:3,c_plus=-1:-0.4:3", "--format", "csv"],
    ["concurrence", "--eta", "0.6,0,0.565685424949238,0.565685424949238", "--beta", "1e-3",
     "--grid", "phi=-3:3:7,c=-2:2:5,c_plus=-1:1:4", "--format", "csv"],
    ["concurrence", "--eta", "0,0,0.8,0.6", "--beta", "1e-3", "--grid", "c_plus=-3:3:7",
     "--format", "csv"],
    ["verify", "--suite", "perturbation", "--gamma", "1e-7"],
    ["verify", "--suite", "perturbation", "--gamma", "1e-200"],
)


def readme_examples(readme: Path = ROOT / "README.md") -> list[list[str]]:
    """The arguments of every line of the README's CLI section that starts,
    indented by four spaces, with `qorbits `; a trailing # comment is not
    an argument."""
    examples, in_cli = [], False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            in_cli = line == "## CLI"
        elif in_cli and line.startswith("    qorbits "):
            examples.append(shlex.split(line, comments=True)[1:])
    return examples


def metric_runs() -> list[list[str]]:
    """The metric and perturb argument lists of the corpus."""
    runs = []
    for label, eta in verify.DEFAULT_CASE_ETAS.items():
        point = ",".join(METRIC_POINT[:verify._default_family(label).dim])
        runs += [["metric", "--eta", ",".join(map(str, eta)), "--point", point, *options]
                 for options in METRIC_OPTIONS]
    return runs + [list(run) for run in METRIC_EXTRAS]


def corpus() -> list[list[str]]:
    """The argument lists of the corpus, in order."""
    runs = [
        ["verify", "--suite", "all", "--seed", str(seed), *options]
        for options, seeds in OPTION_SETS
        for seed in seeds
    ]
    return runs + metric_runs() + [list(run) for run in SCAN_AND_SCALE_EXTRAS] + readme_examples()


def fingerprint(argv: list[str]) -> str:
    """One corpus line: the arguments, cli.main's exit code and the sha256
    of its stdout and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    digests = (hashlib.sha256(s.getvalue().encode("utf-8")).hexdigest() for s in (out, err))
    return "\t".join([shlex.join(argv), str(code), *digests])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=int, default=None, help="run only the first N reports")
    args = parser.parse_args(argv)
    for run in corpus()[:args.limit]:
        print(fingerprint(run), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
