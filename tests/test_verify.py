"""qorbits.verify: the suites as a library, and the CLI report built on them."""

import inspect
import json

import pytest

from qorbits import verify
from qorbits.cli import COMMAND_OPTIONS, OPTIONS, dumps, main
from qorbits.model import InitialCoefficients

# a non-default value of every suite option: the run keyword and the flag text
OPTION_VALUES = {
    "eta": (InitialCoefficients.normalized(0.6, 0.3 + 0.4j, 0.5, -0.2j), "0.6,0.3+0.4j,0.5,-0.2j"),
    "gamma": (0.7, "0.7"),
    "chi": (0.3, "0.3"),
}


@pytest.mark.parametrize("with_options", [False, True], ids=["defaults", "every-option"])
@pytest.mark.parametrize("seed", range(5))
def test_run_equals_the_cli_report(seed, with_options, tmp_path):
    out = tmp_path / "r.json"
    argv = ["verify", "--suite", "all", "--seed", str(seed), "--out", str(out)]
    options = {}
    if with_options:
        for key, (value, text) in OPTION_VALUES.items():
            argv += ["--" + key.replace("_", "-"), text]
            options[key] = value
    assert main(argv) == 0
    checks = verify.run(list(verify.SUITES), seed, **options)
    assert json.loads(dumps(checks)) == json.loads(out.read_text())["checks"]


def test_suite_options_are_the_suite_keywords():
    assert verify.SUITE_OPTIONS == {
        "periodicity": ("--eta",),
        "metric": ("--gamma",),
        "tables": ("--chi",),
        "perturbation": ("--gamma",),
        "curvature": ("--gamma",),
    }
    # a renamed suite keyword leaves the verify command without its option
    flags = {flag for opts in verify.SUITE_OPTIONS.values() for flag in opts}
    assert flags | {"--seed", "--suite"} == set(COMMAND_OPTIONS["verify"])
    # and each keyword defaults to its option's default, so a suite run
    # without it reports what the command reports without the flag
    for name, fn in verify.SUITES.items():
        params = list(inspect.signature(fn).parameters.values())[1:]
        for param, flag in zip(params, verify.SUITE_OPTIONS[name]):
            assert param.default == OPTIONS[flag]["default"], (name, flag)


def test_run_gives_each_suite_only_the_options_it_reads():
    assert verify.run(["metric"], 3, chi=0.3) == verify.run(["metric"], 3)
    assert verify.run(["metric"], 3, gamma=0.7) != verify.run(["metric"], 3)
    with pytest.raises(TypeError, match="h_metrics"):
        verify.run(["metric"], 3, h_metrics=1e-4)
