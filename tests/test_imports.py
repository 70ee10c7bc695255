"""What each command imports, checked in fresh interpreters, and the lazy
package namespace."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kreinshift
from kreinshift.generators import random_dissipative, random_pair
from kreinshift.io import write_matrix

SRC = str(Path(kreinshift.__file__).resolve().parent.parent)

RUN = """
import json, sys
from kreinshift import cli
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def fresh_modules(code: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_command(argv) -> set:
    result = fresh_modules(RUN, json.dumps([str(a) for a in argv]))
    assert result["code"] == 0
    return set(result["modules"])


class TestCommandImports:
    def test_xi_imports_neither_suites_nor_averaging_nor_numpy_ma(self, tmp_path):
        h0, v = random_pair(np.random.default_rng(7), 6, 8)
        write_matrix(tmp_path / "h0.json", h0)
        write_matrix(tmp_path / "v.json", v)
        modules = run_command(
            ["xi", "--h0", tmp_path / "h0.json", "--v", tmp_path / "v.json", "--grid", "auto",
             "--out", tmp_path / "xi.csv"]
        )
        assert {"kreinshift.herglotz", "kreinshift.shift"} <= modules
        unwanted = {
            "kreinshift.checks", "kreinshift.averaging", "kreinshift.generators",
            "kreinshift.oplog", "kreinshift.quadrature", "numpy.ma",
        }
        assert not modules & unwanted

    def test_logm_imports_no_family_or_profiles(self, tmp_path):
        t = random_dissipative(np.random.default_rng(5), 5, allow_flat=False)
        write_matrix(tmp_path / "t.json", t)
        modules = run_command(["logm", "--t", tmp_path / "t.json", "--out", tmp_path / "logm.csv"])
        assert "kreinshift.oplog" in modules
        assert not modules & {"kreinshift.herglotz", "kreinshift.shift"}

    def test_check_all_imports_no_numpy_ma(self, tmp_path):
        modules = run_command(["check", "all", "--out", tmp_path / "check.txt"])
        assert "kreinshift.checks" in modules
        assert "numpy.ma" not in modules

    def test_package_import_loads_no_submodule(self):
        code = "import json, sys, kreinshift; print(json.dumps(sorted(sys.modules)))"
        modules = fresh_modules(code)
        assert [m for m in modules if m.startswith("kreinshift.")] == []


class TestLazyNamespace:
    def test_every_public_name_is_its_submodule_object(self):
        for name in kreinshift.__all__:
            if name == "__version__":
                continue
            module = importlib.import_module(f"kreinshift.{kreinshift._EXPORTS[name]}")
            assert getattr(kreinshift, name) is getattr(module, name)

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from kreinshift import *", namespace)
        assert set(kreinshift.__all__) <= set(namespace)
        assert set(kreinshift.__all__) <= set(dir(kreinshift))

    def test_unknown_name_and_submodule_import(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            kreinshift.no_such_name  # noqa: B018
        from kreinshift import herglotz

        assert herglotz is sys.modules["kreinshift.herglotz"]
