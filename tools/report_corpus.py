"""Fingerprint a fixed corpus of qorbits reports, in one process.

    python tools/report_corpus.py [--limit N] > corpus.txt

The corpus runs through qorbits.cli.main, in this order:

- verify --suite all on seeds 0-399;
- verify --suite all on seeds 0-59 with --gamma 0.7 --chi 0.3;
- verify --suite all on seeds 0-59 with --eta 0.6,0.3+0.4j,0.5,-0.2j;
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

from qorbits import cli  # noqa: E402

OPTION_SETS = (
    ((), range(400)),
    (("--gamma", "0.7", "--chi", "0.3"), range(60)),
    (("--eta", "0.6,0.3+0.4j,0.5,-0.2j"), range(60)),
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


def corpus() -> list[list[str]]:
    """The argument lists of the corpus, in order."""
    runs = [
        ["verify", "--suite", "all", "--seed", str(seed), *options]
        for options, seeds in OPTION_SETS
        for seed in seeds
    ]
    return runs + readme_examples()


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
