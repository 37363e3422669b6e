"""Start-up: which commands load numpy, and the lazy names of the package and CLI.

Every test runs its probe in a fresh interpreter, since a module that some
other test has imported stays loaded in this one.
"""

import hashlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import variantfit
from variantfit.cli import build_parser

SRC = Path(variantfit.__file__).resolve().parents[1]
BENCH = SRC.parent / "bench"


def python(*args, cwd=None):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"},
    )


ADJUSTED = ("adjusted-r", "--cases", "8000", "--cases-prev", "4000",
            "--tested", "600000", "--tested-prev", "300000")

# argv -> (exit code, sha256 of stdout, stderr) as the CLI printed them when
# it imported every layer up front; `adjusted-r --json`'s since its `input`
# block names the tested counts too.
SCALAR_CALLS = {
    ("--version",): (
        0, "e9dd8507f4bf0c6f42458e41aea833ad0bd3f6127272335eee9bf4d58541ed67", ""),
    ADJUSTED: (
        0, "f2345b3dec91f522004efdf0ab0af0a65284306b5e4066c337fcaec6ab4f81b8", ""),
    ADJUSTED + ("--json",): (
        0, "1338805618ba3fb750ced03c48be62483291a21e9cb576e444671a7b906d9be8", ""),
    ("infer-r", "--gamma-gen", "2", "--gamma-ci", "1.8", "2.2", "--contour", "0:1:0.05",
     "--json"): (
        0, "8ad0c25e5e74774fe98e2a1e046b66498248a265b9e7b35817409cb6a328b820", ""),
    ("infer-r", "--R", "1", "--lambda", "0.5", "--gamma-gen", "2"): (
        0, "0b889a546723bc59da78d669d2df8b9606eca0235940f02c5996847d284ac72b", ""),
    ("infer-r", "--R", "1", "--lambda", "1.5", "--gamma-gen", "2"): (
        1, hashlib.sha256(b"").hexdigest(),
        "error: InvalidValue: proportion must lie in [0,1], got 1.5\n"),
    ("estimate", "no-such-file"): (
        1, hashlib.sha256(b"").hexdigest(),
        "error: FileNotFoundError: [Errno 2] No such file or directory: 'no-such-file'\n"),
    ("estimate", "alpha", "--level", "1.5"): (
        1, hashlib.sha256(b"").hexdigest(),
        "error: InvalidValue: level must lie in (0,1), got 1.5\n"),
    ("bogus",): (
        1, hashlib.sha256(b"").hexdigest(),
        "error: UsageError: argument command: invalid choice: 'bogus' (choose from "
        "'estimate', 'crude', 'forecast', 'infer-r', 'adjusted-r', 'simulate', 'multi')\n"),
}


def imports_numpy(importtime_stderr: str) -> bool:
    return any(line.split("|")[-1].strip().split(".")[0] == "numpy"
               for line in importtime_stderr.splitlines() if line.startswith("import time:"))


@pytest.mark.parametrize("argv", list(SCALAR_CALLS), ids=" ".join)
def test_scalar_commands_and_early_errors_run_without_numpy(argv, tmp_path):
    done = python("-X", "importtime", "-m", "variantfit.cli", *argv, cwd=tmp_path)
    assert not imports_numpy(done.stderr)
    stderr = "".join(line + "\n" for line in done.stderr.splitlines()
                     if not line.startswith("import time:"))
    code, stdout_sha, expected_stderr = SCALAR_CALLS[argv]
    assert (done.returncode, hashlib.sha256(done.stdout.encode()).hexdigest(), stderr) == (
        code, stdout_sha, expected_stderr), done.stdout


def test_help_runs_without_numpy(monkeypatch):
    done = python("-X", "importtime", "-m", "variantfit.cli", "--help")
    assert done.returncode == 0
    assert not imports_numpy(done.stderr)
    monkeypatch.setenv("COLUMNS", "80")
    assert done.stdout == build_parser().format_help()


def test_array_commands_still_import_numpy():
    done = python("-X", "importtime", "-m", "variantfit.cli", "estimate", "alpha", "--json")
    assert done.returncode == 0 and imports_numpy(done.stderr)
    assert json.loads(done.stdout)["command"] == "estimate"


RESOLVE_ALL = """
import types, variantfit
assert not isinstance(variantfit.simulate, types.ModuleType), variantfit.simulate
assert not isinstance(variantfit.forecast, types.ModuleType), variantfit.forecast
assert callable(variantfit.simulate) and variantfit.simulate.__name__ == "simulate"
assert callable(variantfit.forecast) and variantfit.forecast.__name__ == "forecast"
missing = [name for name in variantfit.__all__ if not hasattr(variantfit, name)]
assert not missing, missing
assert set(variantfit.__all__) <= set(dir(variantfit))
from variantfit import *
print("ok")
"""


@pytest.mark.parametrize(
    "first",
    [
        "from variantfit import SimConfig, simulate\n"
        "assert simulate.__name__ == 'simulate' and callable(simulate)",
        "import variantfit.simulation\nimport variantfit.inference\nimport variantfit",
        "import variantfit.cli\nimport variantfit.cli as cli\ncli.fit",
    ],
    ids=["from-package", "submodules-first", "cli-first"],
)
def test_package_names_resolve_to_the_exports_in_any_import_order(first):
    done = python("-c", first + "\n" + RESOLVE_ALL)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_no_exported_name_is_a_submodule():
    # Importing a submodule binds it on the package under its own name, so an
    # export of the same name would become the module in some import orders.
    submodules = {module.name for module in pkgutil.iter_modules(variantfit.__path__)}
    assert submodules & set(variantfit.__all__) == set()


def test_submodules_are_attributes_of_the_package():
    done = python("-c", "import variantfit\n"
                        "print(variantfit.errors.ParseError.__name__, variantfit.estimate.fit.__name__)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ParseError fit\n"


def test_the_csv_schema_loads_only_data_and_errors():
    # The m-variant schema reads and writes series; the fit is not its concern.
    done = python("-c", "import sys, variantfit.multivariant; "
                        "print(sorted(m for m in sys.modules if m.startswith('variantfit.')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['variantfit.data', 'variantfit.errors', 'variantfit.multivariant']\n"


def test_import_variantfit_loads_no_numpy():
    done = python("-c", "import sys, variantfit, variantfit.cli; "
                        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# Counts every name the benchmark's tracer wraps on variantfit.cli, wrapped
# right after import as the tracer does, then runs two commands.
COUNT_CALLS = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import spans
import variantfit.cli as cli
calls = {}
for name in spans.CLI_BINDINGS.values():
    original = getattr(cli, name)
    def counted(*args, _name=name, _original=original, **kwargs):
        calls[_name] = calls.get(_name, 0) + 1
        return _original(*args, **kwargs)
    setattr(cli, name, counted)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["estimate", "alpha", "--json"]),
             cli.main(["multi", "--file", sys.argv[2], "--json"])]
print(json.dumps([codes, calls]))
"""


def test_cli_calls_the_names_bound_on_the_module(tmp_path):
    path = tmp_path / "multi.csv"
    path.write_text("t,label,count_a,count_b,count_c\n" + "".join(
        f"{t},w{t},{400 - 30 * t},{10 + 15 * t},{5 + 9 * t}\n" for t in range(1, 11)))
    done = python("-c", COUNT_CALLS, str(BENCH), str(path))
    assert done.returncode == 0, done.stderr
    codes, calls = json.loads(done.stdout)
    assert codes == [0, 0]
    # Both commands fit through `fit` and take their variance from `hac_sandwich`.
    assert calls == {
        "load_bundled": 1,
        "fit": 2,
        "hac_sandwich": 2,
        # estimate's per period, generation and week; multi takes its variants'
        # intervals from one advantage_interval call.
        "interval_for_gamma": 3,
        "load_multi_csv": 1,
    }


def test_a_binding_set_before_first_use_is_kept():
    probe = (
        "import variantfit.cli as cli, variantfit.estimate as estimate\n"
        "seen = []\n"
        "cli.fit = lambda series: seen.append(len(series)) or estimate.fit(series)\n"
        "assert cli.main(['estimate', 'delta']) == 0\n"
        "assert seen == [10], seen\n"
    )
    done = python("-c", probe)
    assert done.returncode == 0, done.stderr


def test_report_builders_work_right_after_import():
    probe = (
        "import variantfit.cli as cli\n"
        "from variantfit import crude_gammas, fisher_information, fit, load_bundled\n"
        "s = load_bundled('alpha')\n"
        "r = fit(s)\n"
        "built = [cli.crude_report({}, s, crude_gammas(s), 0.95),\n"
        "         cli.multi_report({}, r, fisher_information(s, r), 4.7, 0.95)]\n"
        "print([(report()['command'], len(lines())) for report, lines in built])\n"
    )
    done = python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[('crude', 19), ('multi', 3)]\n"


# Runs main() as the process entry does, with the argv given after the probe,
# and prints what the process holds afterwards: the command's stdout is kept
# apart so that the probe's JSON is the only line printed.
ENTRY = """
import contextlib, hashlib, io, json, os, sys
from variantfit.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    try:
        code = main()
    except SystemExit as exc:  # --version leaves through argparse
        code = exc.code
print(json.dumps({
    "code": code,
    "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    "environ": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    "modules": [name for name in ("dataclasses", "statistics") if name in sys.modules],
    "threads": len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None,
}))
"""


def without_thread_counts(**environ) -> dict:
    """This process's environment with no `*_NUM_THREADS` variable but those given."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    return {**env, **environ, "PYTHONPATH": str(SRC)}


def run_entry(*argv, **environ):
    """The ENTRY probe's report, run in an environment with the given thread counts."""
    done = subprocess.run([sys.executable, "-c", ENTRY, *argv], capture_output=True, text=True,
                          env=without_thread_counts(**environ))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_entry_limits_blas_to_one_thread():
    report = run_entry("estimate", "alpha", "--json")
    assert report["code"] == 0
    assert report["environ"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                                 "MKL_NUM_THREADS": "1"}


def test_entry_keeps_a_thread_count_the_user_set():
    report = run_entry("estimate", "alpha", "--json", OPENBLAS_NUM_THREADS="3")
    assert report["code"] == 0
    assert report["environ"] == {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1",
                                 "MKL_NUM_THREADS": "1"}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_array_command_through_the_entry_runs_on_one_thread():
    report = run_entry("estimate", "alpha", "--json")
    assert report["code"] == 0 and report["threads"] == 1


def test_main_with_a_list_leaves_the_environment_alone():
    probe = (
        "import contextlib, io, os\n"
        "from variantfit.cli import main\n"
        "before = dict(os.environ)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['estimate', 'alpha', '--json']) == 0\n"
        "assert dict(os.environ) == before\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=without_thread_counts())
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", [("--version",), ADJUSTED], ids=" ".join)
def test_scalar_commands_load_no_dataclasses(argv):
    report = run_entry(*argv)
    code, stdout_sha, _ = SCALAR_CALLS[argv]
    assert (report["code"], report["stdout_sha256"]) == (code, stdout_sha)
    assert "dataclasses" not in report["modules"]


def test_default_level_loads_no_statistics():
    report = run_entry("estimate", "alpha", "--json")
    assert report["code"] == 0 and "statistics" not in report["modules"]
    # A non-default level still takes its quantile from statistics.NormalDist:
    # these are the bytes the CLI printed when it imported statistics up front.
    report = run_entry("estimate", "alpha", "--json", "--level", "0.9")
    assert report["stdout_sha256"] == (
        "ecc24cc3614b5baba0a37307ff4e3a53deae1abe82c437753a26db48bbe968bc")
    assert "statistics" in report["modules"]
