"""Unit tests for the Python-AST front end (repro.frontend).

The rejection tests pin the contract from the issue: every
unsupported construct raises :class:`FrontendError` carrying the
source line/column — never a crash, never a silent mislowering.
"""

import numpy as np
import pytest

from repro.experiments.common import ExpConfig, clear_cache, store_key_for
from repro.frontend import (
    FrontendError,
    check_ingested,
    infer,
    ingest_file,
    ingest_source,
    lower,
    parse_source,
    run_python_oracle,
    to_kernel_spec,
)
from repro.frontend.corpus import default_ingest_dir
from repro.interp import run_loop
from repro.ir import fmt_flat, fmt_loop, normalize
from repro.ir.codec import loop_digest
from repro.ir.types import F64, I64
from repro.workload import random_workload


def _ingest_one(src: str, filename: str = "t.py"):
    out = ingest_source(src, filename)
    assert len(out) == 1
    return out[0]


class TestParse:
    def test_extracts_counted_loop(self):
        nests = parse_source(
            "def f(n, a, b):\n"
            "    for i in range(n):\n"
            "        b[i] = a[i] * 2.0\n",
            "t.py",
        )
        assert len(nests) == 1
        nest = nests[0]
        assert nest.fn_name == "f" and nest.index == "i" and nest.trip == "n"

    def test_fn_filter(self):
        src = (
            "def one(n, a):\n"
            "    for i in range(n):\n"
            "        a[i] = a[i] + 1.0\n"
            "def two(n, a):\n"
            "    for i in range(n):\n"
            "        a[i] = a[i] + 2.0\n"
        )
        assert [n.fn_name for n in parse_source(src, "t.py")] == ["one", "two"]
        assert [n.fn_name for n in parse_source(src, "t.py", fn="two")] == ["two"]

    def test_pre_loop_literals_captured(self):
        nest = parse_source(
            "def f(n, a):\n"
            "    acc = 0.0\n"
            "    for i in range(n):\n"
            "        acc = acc + a[i]\n"
            "    return acc\n",
            "t.py",
        )[0]
        assert [p.name for p in nest.pre] == ["acc"]
        assert nest.returns == ["acc"]


class TestRejections:
    """Each unsupported construct -> FrontendError with line/col."""

    def _err(self, src: str) -> FrontendError:
        with pytest.raises(FrontendError) as ei:
            ingest_source(src, "t.py")
        return ei.value

    def test_while_loop_in_body(self):
        err = self._err(
            "def f(n, a):\n"
            "    for i in range(n):\n"
            "        while a[i] > 0.0:\n"
            "            a[i] = a[i] - 1.0\n"
        )
        assert err.line == 3 and err.col == 8
        assert "while-loop" in str(err)
        assert err.format().startswith("t.py:3:9:")

    def test_unknown_call(self):
        err = self._err(
            "def f(n, a, b):\n"
            "    for i in range(n):\n"
            "        b[i] = frobnicate(a[i])\n"
        )
        assert err.line == 3 and err.col == 15
        assert "frobnicate" in str(err)

    def test_aliasing_subscripts(self):
        err = self._err(
            "def f(n, a):\n"
            "    for i in range(n):\n"
            "        a[i] = a[i + 1] * 2.0\n"
        )
        assert err.line == 3 and err.col == 8
        assert "aliasing" in str(err)

    def test_non_affine_index(self):
        err = self._err(
            "def f(n, a, b):\n"
            "    for i in range(n):\n"
            "        b[i] = a[i * i]\n"
        )
        assert err.line == 3 and err.col == 17
        assert "non-affine" in str(err)

    def test_nested_for(self):
        err = self._err(
            "def f(n, a):\n"
            "    for i in range(n):\n"
            "        for j in range(n):\n"
            "            a[j] = a[j] + 1.0\n"
        )
        assert err.line == 3 and "nested" in str(err)

    def test_floor_mod(self):
        err = self._err(
            "def f(n, a, b):\n"
            "    for i in range(n):\n"
            "        b[i] = a[i] % 2.0\n"
        )
        assert "%" in str(err) and err.line == 3

    def test_negative_offset(self):
        err = self._err(
            "def f(n, a, b):\n"
            "    for i in range(n):\n"
            "        b[i] = a[i - 1]\n"
        )
        assert err.line == 3

    def test_read_before_assignment(self):
        err = self._err(
            "def f(n, a):\n"
            "    for i in range(n):\n"
            "        a[i] = t\n"
            "        t = a[i] * 2.0\n"
        )
        assert err.line == 3

    def test_never_crashes_only_frontend_errors(self):
        """A battery of hostile inputs: anything other than a clean
        FrontendError (with a real location) is a front-end bug."""
        hostile = [
            "def f(): pass\n",
            "def f(n): return n\n",
            "def f(n, a):\n    for i in range(n):\n        pass\n    else:\n        a[0] = 1.0\n",
            "def f(n, a):\n    for i in range(len(a)):\n        a[i] = 1.0\n",
            "def f(n, a):\n    for i in range(n):\n        a[i] = a\n",
            "def f(n, a):\n    for i in range(n):\n        a[i], a[i] = 1.0, 2.0\n",
            "def f(n, a):\n    for i in range(n):\n        a[i] = i // 2\n",
            "def f(n, a):\n    for i in range(n):\n        a[i] = 1.0 if a else 2.0\n",
            "def f(n, a):\n    for i in range(n):\n        a[i] = int(a[i]) ** 2\n",
            "def f(n, a):\n    for i in range(n):\n        x = [1.0]\n",
            "def f(n, a):\n    for i in range(n):\n        a[i] = 0.0 < a[i] < 1.0\n",
            "def f(n, a, b):\n    for i in range(n):\n        b[i] = a[2 * i]\n",
            "def f(n, a):\n    for i in range(n):\n        print(a[i])\n",
            "def f(n, a):\n    for i in range(n):\n        i = i + 1\n",
            "def f(n, a):\n    for i in range(n):\n        n = n - 1\n",
        ]
        for src in hostile:
            with pytest.raises(FrontendError) as ei:
                ingest_source(src, "t.py")
            err = ei.value
            assert err.line >= 1 and err.col >= 0, src
            assert err.format().startswith("t.py:"), src


class TestInfer:
    def test_dtypes_and_roles(self):
        nest = parse_source(
            "def f(n, a, idx, s):\n"
            "    for i in range(n):\n"
            "        a[idx[i]] = a[idx[i]] + s\n",
            "t.py",
        )[0]
        info = infer(nest)
        assert info.arrays["a"] == F64 and info.arrays["idx"] == I64
        assert info.scalar_dtype("s") == F64

    def test_int_cast_creates_int_scalar(self):
        nest = parse_source(
            "def f(n, a, b):\n"
            "    for i in range(n):\n"
            "        j = int(a[i] * 3.0)\n"
            "        b[i] = a[j]\n",
            "t.py",
        )[0]
        info = infer(nest)
        assert "j" in info.int_scalars

    def test_carried_reduction_detected(self):
        nest = parse_source(
            "def f(n, a):\n"
            "    acc = 0.0\n"
            "    for i in range(n):\n"
            "        acc = acc + a[i]\n"
            "    return acc\n",
            "t.py",
        )[0]
        info = infer(nest)
        assert "acc" in info.carried and "acc" in info.live_out

    def test_unused_params_dropped(self):
        nest = parse_source(
            "def f(n, a, unused):\n"
            "    for i in range(n):\n"
            "        a[i] = a[i] * 2.0\n",
            "t.py",
        )[0]
        info = infer(nest)
        assert "unused" in info.unused_params


class TestLower:
    def test_round_trips_printer_and_normalize(self):
        ing = _ingest_one(
            "def f(n, a, b, c):\n"
            "    for i in range(n):\n"
            "        t = a[i] * b[i]\n"
            "        if t > 1.0:\n"
            "            c[i] = t\n"
            "        else:\n"
            "            c[i] = t * 0.5\n"
        )
        text = fmt_loop(ing.loop)
        assert "loop frontend/f" in text
        flat = normalize(ing.loop)
        assert fmt_flat(flat)

    def test_relower_is_deterministic(self):
        ing = _ingest_one(
            "def f(n, a, b):\n"
            "    for i in range(n):\n"
            "        b[i] = a[i] + a[i + 1]\n"
        )
        again = lower(ing.info, ing.name)
        assert fmt_loop(again) == fmt_loop(ing.loop)

    def test_checkout_path_leaves_the_key_alone(self, tmp_path):
        """One file ingested from two directories (two checkouts sharing
        a store) gets one loop digest and one store key: the loop
        records the file's name, not its path."""
        text = (default_ingest_dir() / "blas.py").read_text()
        keys, digests = [], []
        for where in ("a", "b"):
            path = tmp_path / where / "blas.py"
            path.parent.mkdir()
            path.write_text(text)
            ing = ingest_file(path)[0]
            digests.append(loop_digest(ing.loop))
            clear_cache()  # the second key is built, not recalled
            keys.append(store_key_for(to_kernel_spec(ing), ExpConfig(n_cores=2)))
        assert digests[0] == digests[1]
        assert keys[0] == keys[1]
        assert ing.loop.source.startswith("blas.py:")

    def test_diagnostics_keep_the_full_path(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("def f(n, a):\n    for i in range(n):\n        a[i] = a[i] // 2\n")
        with pytest.raises(FrontendError) as exc:
            ingest_file(path)
        assert str(path) in exc.value.format()

    def test_int_division_matches_python(self):
        """`s / 2` with int s must lower as float division (Python
        semantics), bit-exactly."""
        ing = _ingest_one(
            "def f(n, a, b, k):\n"
            "    for i in range(n):\n"
            "        j = int(a[i])\n"
            "        b[i] = j / 2\n"
        )
        wl = random_workload(ing.loop, trip=16, seed=3)
        res = run_loop(ing.loop, wl)
        py_arrays, _py_scalars = run_python_oracle(ing, wl)
        assert np.array_equal(res.arrays["b"], py_arrays["b"])


class TestOracle:
    def test_three_way_agreement(self):
        ing = _ingest_one(
            "def f(n, x, y, alpha):\n"
            "    s = 0.0\n"
            "    for i in range(n):\n"
            "        y[i] = alpha * x[i] + y[i]\n"
            "        s = s + y[i]\n"
            "    return s\n"
        )
        rep = check_ingested(ing, trip=32, n_cores=2)
        assert rep.arrays_checked >= 1 and rep.scalars_checked == 1
        assert rep.cycles > 0

    def test_oracle_pins_carried_seeds(self):
        ing = _ingest_one(
            "def f(n, a):\n"
            "    lo = 10.0\n"
            "    for i in range(n):\n"
            "        if a[i] < lo:\n"
            "            lo = a[i]\n"
            "    return lo\n"
        )
        assert ing.scalars == {"lo": 10.0}
        check_ingested(ing, trip=24, n_cores=2)
