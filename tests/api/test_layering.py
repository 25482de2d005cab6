"""One-way layering and the import contract of the paths that do not compute.

``repro.api`` sits on top of the runner, the sweep subsystem and the bench
subsystem; the runner package must import none of them — not at import
time, and not while the CLI serves ``run`` or ``list`` (the sweep, bench
and service command trees attach only to invocations that name them).  A
cache hit, ``list`` and a bare :class:`repro.api.Session` also load neither
numpy nor the experiment adapters (:mod:`repro.runner.drivers`).  Every
package but :mod:`repro.service` exports lazily, so a cold run loads only
what its experiment uses: Fig. 3 never reaches the network layer, the MAC
kernels or the sweep subsystem, and ``case_study_full`` on its default
batched kernel never loads the event kernel.  CI runs the same assertions
as standalone steps.
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

#: What only a fan-out that forks or spawns may load: the worker pool
#: imports ``pickle`` and ``signal`` where it forks, and ``pickle`` and
#: ``subprocess`` (which imports ``signal``) where it spawns a kernel
#: helper; nothing in the package uses ``concurrent.futures`` or
#: ``multiprocessing``.
FORK_STACK = ("concurrent.futures", "multiprocessing", "pickle", "signal")

#: Every package but ``repro.service``, whose seam check admits only
#: façade imports; each exports through :func:`repro._lazy.lazy_exports`.
LAZY_PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
    if path.parent.name != "service")

#: What a cold Fig. 3 run has no use for.
NOT_FOR_FIG3 = ("repro.network", "repro.mac.vectorized", "repro.mac.device",
                "repro.mac.coordinator", "repro.sweep")

#: The experiments whose cold run builds a network; no other loads it.
NETWORK_EXPERIMENTS = ("case_study_full", "model_vs_sim")

#: The event MAC kernel, which a run on the batched kernel has no use for.
EVENT_KERNEL = ("repro.mac.device", "repro.mac.coordinator",
                "repro.mac.medium", "repro.radio.cc2420", "repro.sim.engine")

#: Small parameters per experiment (the rest take ``num_windows=1``): the
#: checks below are about imports, not rows.
QUICK_PARAMS = {
    "case_study_full": ["total_nodes=32", "superframes=2"],
    "contention_table": ["num_windows=1", "num_nodes=10"],
    "fig3_radio": [],
    "fig4_ber": ["bench_bits_per_point=1000"],
    "fig6_csma": ["loads=[0.2]", "payload_sizes=[20]", "num_windows=1",
                  "num_nodes=10"],
    "model_vs_sim": ["num_nodes=4", "superframes=2", "num_windows=1"],
}


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})


def _none_loaded(prefixes) -> str:
    """Code asserting no module under ``prefixes`` is in ``sys.modules``."""
    return ("offenders = sorted(m for m in sys.modules "
            f"if m.startswith({tuple(prefixes)!r})); "
            "assert not offenders, offenders")


def _cold_runs(names) -> str:
    """Code running each experiment cold through the CLI, in one process."""
    runs = []
    for name in names:
        args = ["run", name, "--no-cache", "--quiet"]
        for param in QUICK_PARAMS.get(name, ["num_windows=1"]):
            args += ["--param", param]
        runs.append(f"assert main({args!r}) == 0; ")
    return "import sys; from repro.runner.cli import main; " + "".join(runs)


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
    """Nor the process machinery: a cache hit forks nothing."""
    root, cold_rows = warm_cache
    completed = _python_m_repro(
        ["run", "fig3_radio", "--output", "json", "--cache-dir", root],
        _none_loaded(COMPUTE_STACK + FORK_STACK))
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == cold_rows


def test_list_loads_neither_numpy_nor_the_adapters():
    completed = _python_m_repro(["list"], _none_loaded(COMPUTE_STACK))
    assert completed.returncode == 0, completed.stderr
    assert "fig3_radio" in completed.stdout


def test_a_session_loads_neither_numpy_nor_the_adapters(tmp_path):
    """Nor the process machinery: nothing forks at ``import repro.api`` or
    at ``Session(...)``."""
    completed = _run(
        "import sys; import repro.api; "
        f"names = [spec.name for spec in repro.api.Session("
        f"cache_dir={str(tmp_path)!r}).experiments()]; "
        "assert 'case_study' in names, names; "
        + _none_loaded(COMPUTE_STACK + FORK_STACK))
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
    """``repro.obs`` sits just above :mod:`repro.sim`: importing any of its
    modules must not pull in the runner, sweep, bench, api or any
    simulation-domain package.  The check diffs against what a bare
    ``import repro`` loads: its exports are lazy, so that is the package
    and its export helper only.  The package exports lazily too, so every
    module in it is imported by name.  CI runs the same assertion as a
    standalone step."""
    completed = _run(
        "import sys, repro; base = set(sys.modules); "
        "assert sorted(m for m in base if m.startswith('repro.')) == "
        "['repro._lazy'], sorted(base); "
        "import importlib, pkgutil, repro.obs; "
        "[importlib.import_module(f'repro.obs.{info.name}') "
        "for info in pkgutil.iter_modules(repro.obs.__path__)]; "
        "assert 'repro.obs.report' in sys.modules; "
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


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_importing_a_package_loads_none_of_its_submodules(package):
    expected = sorted({"repro", "repro._lazy", package})
    completed = _run(
        f"import sys, {package}; loaded = sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'repro'); "
        f"assert loaded == {expected!r}, loaded")
    assert completed.returncode == 0, completed.stderr


def test_a_cold_fig3_run_loads_no_network_kernel_or_sweep_module():
    completed = _run(
        "import sys; from repro.runner.cli import main; "
        "assert main(['run', 'fig3_radio', '--no-cache', '--quiet']) == 0; "
        + _none_loaded(NOT_FOR_FIG3))
    assert completed.returncode == 0, completed.stderr


def test_only_the_network_experiments_load_the_network_layer():
    """Every other experiment, run cold in one interpreter, leaves
    :mod:`repro.network` unloaded."""
    others = [name for name in default_registry().names()
              if name not in NETWORK_EXPERIMENTS]
    assert len(others) == 9, others
    completed = _run(_cold_runs(others) + _none_loaded(["repro.network"]))
    assert completed.returncode == 0, completed.stderr


@pytest.mark.parametrize("name", NETWORK_EXPERIMENTS)
def test_a_network_experiment_loads_the_network_layer(name):
    completed = _run(_cold_runs([name])
                     + "assert 'repro.network' in sys.modules")
    assert completed.returncode == 0, completed.stderr


def test_a_cold_batched_case_study_loads_no_event_kernel():
    """``case_study_full`` runs the batched kernel; only
    :meth:`repro.network.scenario.EventChannelSimulator.run`, which
    ``simulate_network`` reaches on its event backend alone, imports the
    event kernel."""
    completed = _run(_cold_runs(["case_study_full"])
                     + "assert 'repro.mac.vectorized' in sys.modules; "
                     + _none_loaded(EVENT_KERNEL))
    assert completed.returncode == 0, completed.stderr
