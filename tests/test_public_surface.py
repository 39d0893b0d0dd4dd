"""Every library function has a caller: an export is called inside the
package, and every function body runs from some ``ctlab`` command.

The first test reads each submodule's ``__all__`` with ``ast``. A name
counts as called when some module of the package refers to it (as a name or
an attribute) outside its own ``def``/``class`` statement. Importing a name
does not count, so a re-export in ``__init__.py`` is no call, and the
``__all__`` string does not count either.

The second test runs the command set in-process under ``sys.setprofile`` and
fails on any module-level function or method of ``src/ctlab`` that no
command enters.

A third test reads the import statements: no module imports an underscore
name from another (``from .linalg import _resolve``). A private helper stays
behind its module's public functions; reading a module attribute such as
``linalg._CHUNK_BYTES`` at call time is a different form and is allowed.
Next to it, no module reads the environment (``os.environ``, ``os.getenv``):
a command's options and seed are all that fix its report. No module reads or
writes a generator's ``bit_generator.state``: a generator moves only by the
draws it makes. And no function is memoised (``functools.cache``,
``lru_cache``, ``cached_property``): a cache hit never enters the function's
frame, so the second test would read a function whose cache an earlier test
filled as never run.

TEST_ONLY is the one allowlist the first two tests read, keyed by ``module.qualname``:
what only the test suite or the benchmark reaches, each with the reason it
stays. Every ``tests/<file>.py::<name>`` a reason cites must name a test
function that exists.
"""

import ast
import contextlib
import importlib
import io
import re
import sys
from pathlib import Path

import ctlab
from ctlab import cli

PACKAGE = Path(ctlab.__file__).resolve().parent

_MOMENT_PROBE = (
    "checks the paper's lower-bound moment constants; run by "
    "tests/test_acceptance.py::test_06b_hard_instance_moment_bounds"
)
_LIPSCHITZ_PROBE = (
    "checks the paper's Lipschitz constants; run by "
    "tests/test_acceptance.py::test_09_lipschitz_probes_respect_constants"
)
_PROBE_STATISTIC = "a statistic of the moment and Lipschitz probes (test_06b, test_09)"
_TYPE1_CERTIFICATE = "type1 gamma certificates: an input of the benchmark's certify workload"
_BATCH_MONTE_CARLO = (
    "the fourth-moment Monte Carlo over a caller's Haar batch: perfbench/tracing.py wraps "
    "it by name, and tests/test_moments.py holds the streamed mc_fourth_moment_traces to it"
)
_ONE_AT_A_TIME_POOL = (
    "one instance's dilation and channel, the stack of one of hardness.instance_channels: "
    "tests/test_hardness.py holds the stacked packing pool to them member for member"
)

TEST_ONLY = {
    "hardness.moment_experiment": _MOMENT_PROBE,
    "hardness._record": _MOMENT_PROBE,
    "hardness.lipschitz_probe": _LIPSCHITZ_PROBE,
    "hardness.ProbeReport.all_ok": (
        "the verdict of a moment or Lipschitz probe; read by "
        "tests/test_hardness.py::test_moment_experiment_bounds_hold and "
        "tests/test_hardness.py::test_lipschitz_type1"
    ),
    "hardness._unitary_step": _LIPSCHITZ_PROBE,
    "hardness._tr_anc_outer": _PROBE_STATISTIC,
    "hardness._pair_guard": _PROBE_STATISTIC,
    "hardness.d_statistic": _PROBE_STATISTIC,
    "hardness.amplitude_statistic": _PROBE_STATISTIC,
    "hardness.choi_cross_statistic": _PROBE_STATISTIC,
    "hardness.diamond_cross_statistic": _PROBE_STATISTIC,
    "combs.CombCheck.__bool__": "lets tests assert a certificate by its truth value",
    "hardness.type1_gamma_family": _TYPE1_CERTIFICATE,
    "hardness._type1_subset": _TYPE1_CERTIFICATE,
    "hardness._type1_steps": _TYPE1_CERTIFICATE,
    "hardness.HardInstance.anc_blocks": (
        "the center's Kraus blocks, whose trace-orthogonality "
        "tests/test_acceptance.py::test_06_hard_instance_fuzz_invariants checks"
    ),
    "moments.mc_fourth_moment_trace": _BATCH_MONTE_CARLO,
    "moments._batch_chunks": _BATCH_MONTE_CARLO,
    "channels.Channel.__repr__": "readable channels in test failure messages",
    "hardness.HardInstance.channel": _ONE_AT_A_TIME_POOL,
    "hardness.HardInstance.dilation": _ONE_AT_A_TIME_POOL,
    "tomography.pure_state_oracle": (
        "one column through the oracle, the stack of one of pure_state_oracles: "
        "tests/test_tomography.py checks a column's norm, overlap and phase with it"
    ),
    "cli._common": "decorates the commands when ctlab.cli is imported, before any command runs",
}

# The command set, each run at seed 3 with small counts: every command, all
# four packing regimes, both tomography modes and both packing metrics.
COMMANDS = (
    ["verify"],
    ["moments", "--d", "2", "--samples", "200"],
    ["localtest", "--n", "1", "--samples", "40", "--testers", "1", "--channels", "1"],
    ["localtest", "--n", "2", "--samples", "40", "--testers", "1", "--channels", "1"],
    ["tomography", "--eps", "0.5", "--trials", "2"],
    ["tomography", "--eps", "0.5", "--trials", "2", "--r", "2"],
    ["distances", "--pairs", "2"],
    ["packing-net", "--count", "2"],
    ["packing-net", "--count", "2", "--regime", "type2-near", "--d1", "5", "--d2", "2", "--r", "3"],
    ["packing-net", "--count", "2", "--regime", "type2-mid", "--d1", "4", "--d2", "3", "--r", "2"],
    ["packing-net", "--count", "2", "--regime", "type2-large", "--d1", "2", "--d2", "4", "--r", "3"],
    ["packing-net", "--count", "2", "--metric", "diamond_lower"],
)


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _exports(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _references(tree) -> list:
    """(defined name or None, names referred to) for each top-level statement."""
    out = []
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        names = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
        out.append((owner, names))
    return out


def _functions(tree) -> list:
    """Qualnames of the module-level functions and of the methods of module-level classes."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append(node.name)
        elif isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{f.name}" for f in node.body if isinstance(f, ast.FunctionDef)]
    return out


def test_every_export_has_a_caller():
    trees = _trees()
    refs = {module: _references(tree) for module, tree in trees.items()}
    uncalled = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for name in _exports(tree):
            called = any(
                name in names and not (other == module and owner == name)
                for other, statements in refs.items()
                for owner, names in statements
            )
            if not called and f"{module}.{name}" not in TEST_ONLY:
                uncalled.append(f"{module}.{name}")
    assert not uncalled, "exported but never called inside ctlab: " + ", ".join(uncalled)


def test_test_only_names_are_exported():
    # every allowlisted name is still a function its module exposes
    for key in TEST_ONLY:
        module, qualname = key.split(".", 1)
        obj = importlib.import_module(f"ctlab.{module}")
        for part in qualname.split("."):
            obj = vars(obj)[part]
        assert callable(obj.fget if isinstance(obj, property) else obj), key


def test_test_only_reasons_cite_existing_tests():
    # a reason that names tests/<file>.py::<name> names a test function that exists
    tests_dir = Path(__file__).resolve().parent
    missing = []
    for key, reason in TEST_ONLY.items():
        for path, name in re.findall(r"tests/(\w+\.py)::(\w+)", reason):
            source = tests_dir / path
            defined = {
                node.name
                for node in (ast.parse(source.read_text()).body if source.exists() else [])
                if isinstance(node, ast.FunctionDef)
            }
            if name not in defined:
                missing.append(f"{key}: tests/{path}::{name}")
    assert not missing, "TEST_ONLY cites tests that do not exist: " + ", ".join(missing)


def test_no_private_imports_across_modules():
    private = [
        f"{module}: from .{node.module or ''} import {alias.name}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert not private, "private names imported across modules: " + ", ".join(private)


def test_no_module_reads_the_environment():
    # os.environ, os.getenv, or either name imported from os and then used
    env = ("environ", "getenv")
    reads = [
        f"{module}:{node.lineno}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in env)
        or (isinstance(node, ast.Name) and node.id in env)
    ]
    assert not reads, "environment read in ctlab at " + ", ".join(reads)


def test_no_module_touches_a_generator_state():
    # a read or write of rng.bit_generator.state: a generator moves only by its draws
    touches = [
        f"{module}:{node.lineno}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "state"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "bit_generator"
    ]
    assert not touches, "generator state touched in ctlab at " + ", ".join(touches)


_MEMOISERS = ("cache", "lru_cache", "cached_property")


def _decorator_name(node):
    """A decorator's name without its module or call: cache for @functools.cache,
    lru_cache for @lru_cache(8)."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_no_function_is_memoised():
    memoised = [
        f"{module}:{node.lineno}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_decorator_name(deco) in _MEMOISERS for deco in node.decorator_list)
    ]
    assert not memoised, "memoised function in ctlab at " + ", ".join(memoised)


def _run_commands() -> set:
    """module.qualname of every ctlab function a command of COMMANDS enters."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    for args in COMMANDS:
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(args=[*args, "--seed", "3"], prog_name="ctlab", standalone_mode=False)
        except SystemExit as exc:
            assert exc.code == 0, (args, exc.code)
        finally:
            sys.setprofile(None)
    return {
        f"{Path(code.co_filename).stem}.{code.co_qualname}"
        for code in codes
        if Path(code.co_filename).resolve().parent == PACKAGE
    }


def test_every_function_runs_from_a_command():
    entered = _run_commands()
    defined = {
        f"{module}.{qualname}" for module, tree in _trees().items() for qualname in _functions(tree)
    }
    never = sorted(defined - entered - set(TEST_ONLY))
    assert not never, "no ctlab command runs: " + ", ".join(never)
    stale = sorted(set(TEST_ONLY) & entered)
    assert not stale, "allowlisted but run by a command: " + ", ".join(stale)
