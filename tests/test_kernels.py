"""Tests for the kernel suite: registry integrity, buildability, and
Table I metadata."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.interp import run_loop
from repro.ir import fmt_loop, normalize
from repro.kernels import (
    CATEGORIES,
    all_kernels,
    corpus_kernels,
    get_kernel,
    table1_kernels,
)

TABLE1_NAMES = [
    "lammps-1", "lammps-2", "lammps-3", "lammps-4", "lammps-5",
    "irs-1", "irs-2", "irs-3", "irs-4", "irs-5",
    "umt2k-1", "umt2k-2", "umt2k-3", "umt2k-4", "umt2k-5", "umt2k-6",
    "sphot-1", "sphot-2",
]


def _fresh_interpreter(code: str) -> str:
    """Run ``code`` in a new interpreter over this checkout; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestStartup:
    """What the registry loads, and when."""

    def test_table1_cell_loads_neither_networkx_nor_the_frontend(self):
        out = _fresh_interpreter(
            "import sys\n"
            "import repro.experiments\n"
            "from repro.experiments.common import ExpConfig, store_key_for\n"
            "from repro.kernels import table1_kernels\n"
            "store_key_for(table1_kernels()[0], ExpConfig())\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'\n"
            "             or m.startswith('repro.frontend')))\n"
        )
        assert out.strip() == "[]"

    def test_frontend_name_resolves_in_a_fresh_process(self):
        out = _fresh_interpreter(
            "from repro.kernels import get_kernel\n"
            "spec = get_kernel('frontend/dot')\n"
            "print(spec.name, spec.origin, spec.loop().name)\n"
        )
        assert out.split() == ["frontend/dot", "frontend", "frontend/dot"]


class TestRegistry:
    def test_corpus_has_51_loops(self):
        assert len(corpus_kernels()) == 51

    def test_table1_has_18_in_order(self):
        assert [k.name for k in table1_kernels()] == TABLE1_NAMES

    def test_unique_names(self):
        names = [k.name for k in all_kernels()]
        assert len(names) == len(set(names))

    def test_categories_valid(self):
        for k in all_kernels():
            assert k.category in CATEGORIES

    def test_taxonomy_counts(self):
        by_cat = {}
        for k in corpus_kernels():
            by_cat[k.category] = by_cat.get(k.category, 0) + 1
        assert by_cat["init"] == 6
        assert by_cat["traditional"] == 16
        assert by_cat["reduction-scalar"] == 8
        assert by_cat["reduction-array"] == 1
        assert by_cat["conditional"] == 2
        assert by_cat["amenable"] == 18

    def test_apps(self):
        apps = {k.app for k in corpus_kernels()}
        assert apps == {"lammps", "irs", "umt2k", "sphot", "amg"}

    def test_no_amg_in_table1(self):
        """Note in §IV: 'there are no loops from amg in the list'."""
        assert all(k.app != "amg" for k in table1_kernels())

    def test_get_kernel(self):
        assert get_kernel("irs-1").app == "irs"
        with pytest.raises(KeyError):
            get_kernel("nonexistent-99")

    def test_table1_pct_matches_paper(self):
        expect = {
            "lammps-1": 30.0, "lammps-3": 49.5, "irs-1": 55.6,
            "umt2k-4": 22.6, "sphot-2": 37.5,
        }
        for name, pct in expect.items():
            assert get_kernel(name).pct_time == pct


@pytest.mark.parametrize("spec", all_kernels(), ids=lambda s: s.name)
class TestEveryKernel:
    def test_builds_and_normalizes(self, spec):
        loop = spec.loop()
        assert fmt_loop(loop)
        body = normalize(loop, max_height=2)
        assert len(body.stmts) >= 1

    def test_interprets_on_default_workload(self, spec):
        loop = spec.loop()
        wl = spec.workload(trip=16)
        res = run_loop(loop, wl)
        assert res.stmt_execs > 0

    def test_builder_is_pure(self, spec):
        assert fmt_loop(spec.loop()) == fmt_loop(spec.loop())
