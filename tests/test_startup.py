"""Start-up import budget: a command loads only the code it runs.

A warm ``repro report`` decodes artifact summaries and ``repro list`` prints
the workload registry; neither runs a compiler stage, so neither may import
one (docs/PERFORMANCE.md, "Start-up").  Nor may they compile code of their
own modules that they never call: other commands' bodies, the encoder,
the pool slot, the history queries.  Each check runs the CLI in a fresh
interpreter and reads ``sys.modules``, and the names the loaded ``repro``
modules define, when the command returns.

The pool test pins the other half of the rule: the stages a cold ``-j N``
run needs are imported once in the parent before its pool forks, so the
workers inherit them instead of importing them each.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Packages and modules only a compile (or a render) runs.
STAGES = (
    "repro.frontend",
    "repro.transforms",
    "repro.analysis",
    "repro.pdg",
    "repro.dswp",
    "repro.interp",
    "repro.hls",
    "repro.ir",
    "repro.costmodel",
    "repro.viz",
    "repro.sim.timing",
    "repro.sim.system",
    "multiprocessing",
)

#: Functions a warm ``repro report --json`` never calls: the artifact
#: encoder, the re-simulations' build of a compile (a warm report builds
#: nothing), a pool slot's loop, two other commands' bodies and the history
#: regression check.
UNRUN_BY_WARM_REPORT = (
    "encode_compilation_result",
    "sweep_input",
    "_slot_main",
    "_cmd_explore",
    "_cmd_trace",
    "check_regressions",
)

REPORT_ARGS = ["report", "--json", "--benchmarks", "blowfish,mips"]

# Runs repro.cli.main in this interpreter, then writes the names of every
# loaded module to the file named by the first argument, and the names the
# loaded repro modules define (not import) to that name plus ".names".
_PROBE = """
import json, sys
from repro.cli import main
code = main(sys.argv[2:])
sys.stdout.flush()
with open(sys.argv[1], "w") as out:
    json.dump(sorted(sys.modules), out)
defined = {
    name
    for module_name, module in list(sys.modules.items())
    if module_name == "repro" or module_name.startswith("repro.")
    for name, value in vars(module).items()
    if getattr(value, "__module__", None) == module_name
}
with open(sys.argv[1] + ".names", "w") as out:
    json.dump(sorted(defined), out)
sys.exit(code)
"""


def _env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_defining(args, tmp_path):
    """(stdout, loaded module names, names the loaded repro modules define)
    of one CLI invocation."""
    modules = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(modules), *args],
        capture_output=True,
        env=_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    names = Path(str(modules) + ".names")
    return proc.stdout, json.loads(modules.read_text()), set(json.loads(names.read_text()))


def _run(args, tmp_path):
    """(stdout, loaded module names) of one CLI invocation."""
    return _run_defining(args, tmp_path)[:2]


def _loaded(modules, prefixes):
    return sorted(m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes))


@pytest.fixture(scope="module")
def cold_report(tmp_path_factory):
    """A cache filled by one cold report, and that report's stdout."""
    root = tmp_path_factory.mktemp("startup")
    cache = root / "cache"
    stdout, modules = _run(REPORT_ARGS + ["--cache-dir", str(cache)], root)
    assert "repro.interp.interpreter" in modules  # it really compiled
    return cache, stdout


@pytest.mark.parametrize("extra", [[], ["-j", "2"]], ids=["serial", "j2"])
def test_warm_report_loads_no_stage(cold_report, extra, tmp_path):
    cache, cold_stdout = cold_report
    stdout, modules = _run(REPORT_ARGS + extra + ["--cache-dir", str(cache)], tmp_path)
    assert stdout == cold_stdout
    assert _loaded(modules, STAGES) == []


@pytest.mark.parametrize("extra", [[], ["-j", "2"]], ids=["serial", "j2"])
def test_warm_report_loads_none_of_the_code_it_does_not_run(cold_report, extra, tmp_path):
    """Not only no stage: no encode, no slot loop, no other command's body
    and no history query is compiled for a run that calls none of them."""
    cache, cold_stdout = cold_report
    stdout, _, defined = _run_defining(REPORT_ARGS + extra + ["--cache-dir", str(cache)], tmp_path)
    assert stdout == cold_stdout
    assert sorted(defined.intersection(UNRUN_BY_WARM_REPORT)) == []


def test_list_loads_no_command_body_but_its_own(tmp_path):
    stdout, _, defined = _run_defining(["list"], tmp_path)
    assert b"blowfish" in stdout
    assert sorted(name for name in defined if name.startswith("_cmd_")) == ["_cmd_list"]
    assert "_write_report_html" not in defined


def test_list_loads_no_stage_and_no_evaluation(tmp_path):
    stdout, modules = _run(["list"], tmp_path)
    assert b"blowfish" in stdout
    assert _loaded(modules, STAGES + ("repro.eval", "repro.explore")) == []


def test_tracer_probes_resolve_after_cli_import():
    """Every binding perfbench/tracer.py wraps exists where it looks for it
    (a cheap copy of perfbench/selfcheck.py's binding guard)."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    importlib.import_module("repro.cli")
    for module_name, owner_name, attr, _, _ in tracer.PROBES:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        assert callable(getattr(owner, attr)), (module_name, owner_name, attr)


# Submits one task to a fresh pool and reports whether the interpreter was
# loaded before the submit and inside the worker.
_POOL_PROBE = """
import multiprocessing, sys
from repro.eval.taskgraph import LocalProcessExecutor, Task

STAGE = "repro.interp.interpreter"

def stage_loaded():
    return STAGE in sys.modules

before = STAGE in sys.modules
executor = LocalProcessExecutor(1)
try:
    pending = [Task("probe", "compile", stage_loaded)]
    executor.submit(pending, executor.placement(pending), None)
    (outcome,) = executor.wait()
finally:
    executor.close()
print(multiprocessing.get_start_method(), before, outcome.value)
"""


def test_pool_workers_inherit_the_stages():
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_PROBE],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    method, before, in_worker = proc.stdout.split()
    if method != "fork":
        pytest.skip(f"pool workers start by {method}, so they inherit nothing")
    assert (before, in_worker) == ("False", "True")
