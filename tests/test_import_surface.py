"""The lazy package surface (``repro._lazy``, DESIGN.md "Import layering").

Everything here compares module *sets* and object identities, never
timings, so it cannot flake on a slow host: the public names are the
same objects as before, ``import repro`` loads nothing, and a cold
``profile`` loads only what it runs.
"""

import ast
import hashlib
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.iter_modules(repro.__path__, "repro.")
    if info.ispkg
)


def export_table(package) -> dict[str, list[str]]:
    """The ``{leaf: names}`` literal a package ``__init__`` hands to attach."""
    tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "attach":
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package.__name__} does not export via attach()")


def run_fresh(code: str, *argv: str) -> str:
    """Stdout of *code* run in a fresh interpreter that can import repro."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", PACKAGES)
class TestEveryPackage:
    def test_names_are_the_leaf_module_objects(self, name):
        package = importlib.import_module(name)
        table = export_table(package)
        exported = [n for names in table.values() for n in names]
        assert len(exported) == len(set(exported))
        assert set(exported) <= set(package.__all__)
        for leaf, names in table.items():
            module = importlib.import_module(f"{name}.{leaf}")
            for attr in names:
                assert getattr(package, attr) is getattr(module, attr)

    def test_dir_covers_all_and_all_resolves(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))
        for attr in package.__all__:
            getattr(package, attr)

    def test_unknown_name_is_an_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=f"'{name}' has no attribute"):
            package.no_such_name
        assert not hasattr(package, "no_such_name")


class TestCompatibility:
    def test_classes_pickle_by_their_leaf_module(self):
        assert repro.Mnemo.__module__ == "repro.core.mnemo"
        assert pickle.loads(pickle.dumps(repro.RedisLike)) is repro.RedisLike

    def test_telemetry_session_stays_the_context_manager(self):
        # the submodule of the same name must not rebind it, whenever loaded
        out = run_fresh(
            "from repro.telemetry.session import TelemetrySession\n"
            "from repro import telemetry\n"
            "print(callable(telemetry.session), "
            "telemetry.TelemetrySession is TelemetrySession)"
        )
        assert out.split() == ["True", "True"]

    def test_star_imports_and_submodule_fallback(self):
        out = run_fresh(
            "from repro import *\n"
            "from repro.core import *\n"
            "import repro.runner\n"
            "print(Mnemo.__name__, RedisLike.__name__, choice_at.__name__, "
            "repro.runner.grid.__name__)"
        )
        assert out.split() == [
            "Mnemo", "RedisLike", "choice_at", "repro.runner.grid",
        ]


class TestFreshInterpreter:
    def test_import_repro_loads_nothing(self):
        out = run_fresh(
            "import sys, repro\n"
            "print(*sorted(m for m in sys.modules if m.startswith('repro.')))\n"
            "print('numpy' in sys.modules)"
        )
        assert out.splitlines() == ["repro._lazy", "False"]

    def test_importing_the_cli_loads_no_simulator(self):
        out = run_fresh(
            "import sys, repro.cli\n"
            "print(*sorted(m for m in sys.modules if m.startswith('repro')))\n"
            "print('numpy' in sys.modules)"
        )
        assert out.splitlines() == [
            "repro repro._lazy repro.cli repro.errors", "False",
        ]

    #: What a cold ``profile`` must not pay for: the pool, the daemon,
    #: the guard, analysis extras.
    NOT_ON_THE_PROFILE_PATH = (
        "repro.runner.grid", "repro.guard", "repro.service.serve",
        "repro.service.requests", "repro.service.signals",
        "repro.analysis.bootstrap", "repro.analysis.asciiplot",
        "repro.core.mnemot", "repro.baselines", "multiprocessing",
        "concurrent.futures.process", "socket",
    )

    #: sha256 of that command's stdout at the commit before the lazy
    #: surface (PR 11): lazy imports may not change a byte of advice.
    PROFILE_STDOUT_SHA256 = (
        "dd931508156a91861d2217d6bcbf7b3322d6800d9d84662b9c588ac7486905cb"
    )

    def test_cold_profile_imports_only_what_it_runs(self, tmp_path):
        out = run_fresh(
            "import sys, repro.cli\n"
            "code = repro.cli.main(['profile', '--workload', 'trending', "
            "'--engine', 'redis', '--seed', '3', '--cache-dir', sys.argv[1]])\n"
            "print('LOADED', code, *sorted(sys.modules))",
            str(tmp_path / "store.db"),
        )
        report, _, tail = out.rpartition("LOADED ")
        code, *loaded = tail.split()
        assert code == "0"
        assert sorted(set(self.NOT_ON_THE_PROFILE_PATH) & set(loaded)) == []
        assert "repro.store.store" in loaded  # it did open the store
        digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
        assert digest == self.PROFILE_STDOUT_SHA256

    def test_concurrent_first_access_yields_one_object_per_name(self):
        out = run_fresh(
            "import sys, threading\n"
            "import repro, repro.core, repro.guard\n"
            "sys.setswitchinterval(1e-6)\n"
            "targets = [(p, n) for p in (repro, repro.core, repro.guard)\n"
            "           for n in p.__all__]\n"
            "barrier = threading.Barrier(8)\n"
            "seen = [[] for _ in range(8)]\n"
            "def resolve(k):\n"
            "    barrier.wait(timeout=30)\n"
            "    seen[k] = [id(getattr(p, n)) for p, n in targets]\n"
            "threads = [threading.Thread(target=resolve, args=(k,))\n"
            "           for k in range(8)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(timeout=60)\n"
            "assert not any(t.is_alive() for t in threads)\n"
            "print(len(targets), len({tuple(ids) for ids in seen}))"
        )
        n_targets, distinct = map(int, out.split())
        assert n_targets > 50 and distinct == 1
