"""One-way layering and the import contract of the paths that do not compute.

``repro.api`` sits on top of the runner, the sweep subsystem and the bench
subsystem; the runner package must import none of them — not at import
time, and not while the CLI serves ``run`` or ``list`` (the sweep, bench
and service command trees attach only to invocations that name them).  A
cache hit, ``list`` and a bare :class:`repro.api.Session` also load neither
numpy nor the experiment adapters (:mod:`repro.runner.drivers`).  CI runs
the same assertions as standalone steps.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.runner.cli import build_parser
from repro.runner.registry import default_registry

SRC = Path(__file__).resolve().parents[2] / "src"

#: Packages above the runner.
UPPER_LAYERS = ("repro.api", "repro.sweep", "repro.bench", "repro.service")

#: What only a computing run may load.
COMPUTE_STACK = ("numpy", "repro.runner.drivers")


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})


def _none_loaded(prefixes) -> str:
    """Code asserting no module under ``prefixes`` is in ``sys.modules``."""
    return ("offenders = sorted(m for m in sys.modules "
            f"if m.startswith({tuple(prefixes)!r})); "
            "assert not offenders, offenders")


def _python_m_repro(args, check: str = "") -> subprocess.CompletedProcess:
    """``python -m repro <args>``, then ``check`` in the same interpreter."""
    return _run("import runpy, sys\n"
                f"sys.argv = ['repro', *{list(args)!r}]\n"
                "try:\n"
                "    runpy.run_module('repro', run_name='__main__')\n"
                "except SystemExit as stop:\n"
                "    assert not stop.code, stop.code\n"
                f"{check}\n")


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache holding fig3_radio's default run, and that run's JSON rows."""
    root = tmp_path_factory.mktemp("warm-cache")
    cold = _python_m_repro(["run", "fig3_radio", "--output", "json",
                            "--cache-dir", str(root)])
    assert cold.returncode == 0, cold.stderr
    return str(root), cold.stdout


def test_importing_the_runner_pulls_in_no_upper_layer(warm_cache):
    """Every CLI invocation builds its parser; a warm ``run`` and ``list``
    must still load nothing above the runner."""
    root, _ = warm_cache
    completed = _run(
        "import sys; import repro.runner; "
        "from repro.runner.cli import main; "
        f"assert main(['run', 'fig3_radio', '--quiet', '--cache-dir', "
        f"{root!r}]) == 0; "
        "assert main(['list']) == 0; " + _none_loaded(UPPER_LAYERS))
    assert completed.returncode == 0, completed.stderr


def test_a_warm_run_loads_neither_numpy_nor_the_adapters(warm_cache):
    root, cold_rows = warm_cache
    completed = _python_m_repro(
        ["run", "fig3_radio", "--output", "json", "--cache-dir", root],
        _none_loaded(COMPUTE_STACK))
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == cold_rows


def test_list_loads_neither_numpy_nor_the_adapters():
    completed = _python_m_repro(["list"], _none_loaded(COMPUTE_STACK))
    assert completed.returncode == 0, completed.stderr
    assert "fig3_radio" in completed.stdout


def test_a_session_loads_neither_numpy_nor_the_adapters(tmp_path):
    completed = _run(
        "import sys; import repro.api; "
        f"names = [spec.name for spec in repro.api.Session("
        f"cache_dir={str(tmp_path)!r}).experiments()]; "
        "assert 'case_study' in names, names; "
        + _none_loaded(COMPUTE_STACK))
    assert completed.returncode == 0, completed.stderr


def test_log_level_before_the_command_still_parses(warm_cache):
    root, cold_rows = warm_cache
    completed = _python_m_repro(
        ["--log-level", "debug", "run", "fig3_radio", "--output", "json",
         "--cache-dir", root], _none_loaded(COMPUTE_STACK))
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == cold_rows


def test_top_level_help_lists_every_command():
    commands = next(action.choices for action in build_parser()._actions
                    if action.dest == "command")
    assert set(commands) == {"list", "run", "cache", "obs", "sweep",
                             "bench", "serve", "jobs"}
    completed = _python_m_repro(["--help"])
    assert completed.returncode == 0, completed.stderr
    assert "{" + ",".join(commands) + "}" in completed.stdout
    for name in commands:
        assert f"\n    {name} " in completed.stdout, name


@pytest.mark.parametrize("name", default_registry().names())
def test_every_catalogue_adapter_resolves_to_a_callable(name):
    """A renamed adapter fails here, not on a user's first cold run."""
    assert callable(default_registry().get(name).runner.resolve())


def test_importing_the_routing_layer_pulls_in_no_upper_layer():
    """The NET layer (topology + routing) sits below the runner: it may
    import the MAC, traffic and RNG substrate, never the orchestration
    layers above it.  CI runs the same assertion as a standalone step."""
    completed = _run(
        "import sys; import repro.network.routing, repro.network.topology; "
        "offenders = sorted(m for m in sys.modules "
        "if m.startswith(('repro.runner', 'repro.api', 'repro.sweep', "
        "'repro.bench'))); "
        "assert not offenders, offenders")
    assert completed.returncode == 0, completed.stderr


def test_importing_obs_pulls_in_nothing_above_the_sim_substrate():
    """``repro.obs`` sits just above :mod:`repro.sim`: importing it must
    not pull in the runner, sweep, bench, api or any simulation-domain
    package.  The check diffs against what a bare ``import repro`` loads:
    its exports are lazy, so that is the package and its export helper
    only.  CI runs the same assertion as a standalone step."""
    completed = _run(
        "import sys, repro; base = set(sys.modules); "
        "assert sorted(m for m in base if m.startswith('repro.')) == "
        "['repro._lazy'], sorted(base); import repro.obs; "
        "offenders = sorted(m for m in set(sys.modules) - base "
        "if m.startswith('repro.') "
        "and not m.startswith(('repro.obs', 'repro.sim'))); "
        "assert not offenders, offenders")
    assert completed.returncode == 0, completed.stderr


def test_importing_the_facade_pulls_in_no_service_layer():
    """``repro.service`` sits *above* the façade; importing ``repro.api``
    must not load it (the CLI wires serve/jobs in lazily)."""
    completed = _run(
        "import sys; import repro.api; "
        "offenders = sorted(m for m in sys.modules "
        "if m.startswith('repro.service')); "
        "assert not offenders, offenders")
    assert completed.returncode == 0, completed.stderr


def test_service_sources_import_nothing_below_the_facade():
    """Static check of the service seam: every ``repro.*`` import in
    ``src/repro/service/`` is the façade, the obs layer, the service
    package itself, or the cache-backend protocol — never the runner,
    sweep, bench or simulation layers directly.  CI runs the same
    assertion as a standalone step."""
    import ast

    allowed = ("repro.api", "repro.obs", "repro.service",
               "repro.runner.backends")
    offenders = []
    for path in sorted((SRC / "repro" / "service").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            for name in names:
                if name.startswith("repro") and not name.startswith(allowed):
                    offenders.append(f"{path.name}: {name}")
    assert not offenders, offenders


def test_importing_the_service_loads_no_layer_below_the_facade_directly():
    """Runtime counterpart: loading ``repro.service`` only reaches the
    engine through the modules ``repro.api`` itself already loaded."""
    completed = _run(
        "import sys; import repro.api; base = set(sys.modules); "
        "import repro.service, repro.service.cli; "
        "offenders = sorted(m for m in set(sys.modules) - base "
        "if m.startswith('repro.') "
        "and not m.startswith(('repro.service', 'repro.obs'))); "
        "assert not offenders, offenders")
    assert completed.returncode == 0, completed.stderr


def test_importing_the_facade_is_self_contained_and_runs(tmp_path):
    """The documented entry point works from a cold interpreter."""
    completed = _run(
        "import repro.api as api; "
        f"session = api.Session(cache_dir={str(tmp_path)!r}); "
        "result = session.run('fig3_radio'); "
        "assert result.rows and not result.cache_hit; "
        "print(result.experiment, len(result.rows))")
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith("fig3_radio")
