"""What the package imports: only its declared dependencies, and no scipy."""

import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# import names whose distribution is called something else
DISTRIBUTION = {"yaml": "pyyaml"}


def test_a_probit_run_never_loads_scipy(tmp_path):
    script = textwrap.dedent("""
        import importlib, json, pkgutil, sys

        import yaml

        import bbalpha
        for info in pkgutil.iter_modules(bbalpha.__path__):
            importlib.import_module("bbalpha." + info.name)
        from bbalpha import cli

        cfg = {
            "dataset": {"kind": "synthetic_probit", "seed": 1, "n": 40, "d": 2},
            "model": {"kind": "probit"},
            "train": {"alpha": 0.5, "k_samples": 5, "batch_size": 10,
                      "epochs": 2, "learning_rate": 0.05},
            "experiment": {"n_splits": 1, "seed": 0, "metrics_k": 20},
        }
        with open("cfg.yaml", "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh)
        report = cli.cmd_train("cfg.yaml", "out")
        print(json.dumps({"splits": len(report["splits"]),
                          "scipy": sorted(m for m in sys.modules
                                          if m.split(".")[0] == "scipy")}))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"splits": 1, "scipy": []}


def test_importing_the_package_and_cli_loads_no_process_pool():
    # the process pool of `workers > 1` is imported when a run starts one
    script = ("import sys, bbalpha, bbalpha.cli; print(sorted(m for m in"
              " ('multiprocessing', 'concurrent.futures',"
              " 'concurrent.futures.process') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_threaded_run_loads_no_executor_or_logging():
    # the ε helper is a plain thread: concurrent.futures, with logging,
    # traceback and string, would load inside the first threaded train()
    script = textwrap.dedent("""
        import json, os, sys, threading

        os.sched_getaffinity = lambda pid: {0, 1}   # two CPUs on any host
        from bbalpha import likelihoods as lk
        from bbalpha.optim import TrainConfig, default_prior, train

        started, start = [], threading.Thread.start
        threading.Thread.start = lambda t: (started.append(t.name), start(t))
        model = lk.MLPClassification(2, 50, 50, 3)     # perfbench's mlp_train
        train(model, lk.gen_three_class(0, n=270), default_prior(model.theta_dim),
              TrainConfig(alpha=0.5, k_samples=20, batch_size=32, epochs=1,
                          learning_rate=0.01))
        print(json.dumps({"threads": len(started), "loaded": sorted(
            m for m in ("concurrent.futures", "logging", "queue")
            if m in sys.modules)}))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"threads": 1, "loaded": []}


def _declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    # a requirement is its name up to the first version or marker character
    names = set()
    for req in project["dependencies"]:
        for stop in "<>=!~;[ ":
            req = req.split(stop)[0]
        names.add(req.strip().lower())
    return names


def _top_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                yield alias.name.split(".")[0]
        elif isinstance(stmt, ast.ImportFrom) and stmt.level == 0:
            yield stmt.module.split(".")[0]


def test_every_import_is_a_declared_dependency():
    declared = _declared_dependencies()
    undeclared = set()
    for path in sorted((SRC / "bbalpha").glob("*.py")):
        for name in _top_level_imports(path):
            if name in sys.stdlib_module_names or name == "bbalpha":
                continue
            if DISTRIBUTION.get(name, name) not in declared:
                undeclared.add((path.name, name))
    assert not undeclared
    assert "scipy" not in declared


def _bbalpha_imports(path):
    """Every bbalpha submodule a file imports, at any depth of its tree."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                yield alias.name
        elif isinstance(stmt, ast.ImportFrom):
            base = "bbalpha" if stmt.level else ""
            module = ".".join(p for p in (base, stmt.module) if p)
            yield module
            for alias in stmt.names:
                yield module + "." + alias.name


def test_energy_does_not_import_the_oracle():
    # the oracle is the dense reference the energy code is checked against
    imports = set(_bbalpha_imports(SRC / "bbalpha" / "energy.py"))
    assert "bbalpha.expfam" in imports
    assert not {m for m in imports if m.startswith("bbalpha.oracle")}


def _unused_imports(path):
    """The names a module imports and never reads, anywhere in its tree."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_uses():
    # what a deletion leaves behind, in the package and in its tests;
    # __init__ imports to re-export
    paths = [*(SRC / "bbalpha").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    unused = {str(path.relative_to(ROOT)): _unused_imports(path)
              for path in sorted(paths) if path.name != "__init__.py"}
    assert {name: u for name, u in unused.items() if u} == {}
