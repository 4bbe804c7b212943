"""The benchmark's own tests.

    python3 -m pytest bench/check_pins.py

They check that ``pins.json`` covers every item a seed can draw, that each
pinned ``gb-random`` digest is the digest of the reduced basis sympy computes
(so the pins are not only this engine's output), and that the tracer reaches
every binding of the functions it wraps and fails loudly when it cannot.
The file name keeps it out of the repository's default test collection:
the sympy cross-check takes about a minute and a half.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import LAYER_METRICS, TRACED, Tracer, TracerError  # noqa: E402
from workloads import WORKLOADS, all_items  # noqa: E402

PINS = run.load_pins()
TOOL_VERSION = "0.1.0"  # part of every pinned report


def test_metric_tables_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)


def test_pins_cover_every_item_a_seed_can_draw():
    for workload in WORKLOADS:
        assert set(PINS[workload]) == {item.name for item in all_items(workload)}
    unpinned = {(w, name) for w, pins in PINS.items() for name, pin in pins.items() if pin is None}
    assert unpinned == {("analyze-catalog", "scroll_3-4"), ("analyze-catalog", "scroll_1-1-1-2")}


def _degrevlex_key(exps):
    return sum(exps), tuple(-e for e in reversed(exps))


def _render(poly, names) -> str:
    """A monic polynomial in the report's text form: terms in descending
    degrevlex order, ``c*x1^2*x3`` with ``c`` omitted when 1."""
    pieces = []
    for exps, coeff in sorted(poly.terms(), key=lambda t: _degrevlex_key(t[0]), reverse=True):
        c = Fraction(int(coeff.p), int(coeff.q))
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)
        body = mono if mono and abs(c) == 1 else f"{abs(c)}*{mono}" if mono else str(abs(c))
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


@pytest.mark.parametrize("item", all_items("gb-random"), ids=lambda item: item.name)
def test_gb_pin_is_the_digest_of_the_sympy_basis(item):
    sympy = pytest.importorskip("sympy")
    ring, ideal = item.text.splitlines()
    names = [name.strip() for name in ring.removeprefix("ring:").split(",")]
    # Declaration order is significance order in both systems: x1 > x2 > ... > xn.
    symbols = sympy.symbols(names)
    local = dict(zip(names, symbols))
    forms = [sympy.sympify(f.replace("^", "**"), locals=local) for f in ideal.removeprefix("ideal:").split(",")]
    basis = sympy.groebner(forms, *symbols, order="grevlex", domain="QQ")
    monic = []
    for g in basis.polys:
        lead = max((exps for exps, _ in g.terms()), key=_degrevlex_key)
        monic.append((lead, g.quo_ground(g.coeff_monomial(lead))))
    monic.sort(key=lambda pair: _degrevlex_key(pair[0]), reverse=True)
    doc = {
        "tool_version": TOOL_VERSION,
        "command": "gb",
        "input_digest": run.text_digest(item.text),
        "order": "degrevlex",
        "basis": [_render(g, names) for _, g in monic],
    }
    assert run.report_digest(doc) == PINS["gb-random"][item.name]


def _module_bindings():
    """Identity of every callable in a cmtype namespace (ids, so that the
    snapshot itself holds no reference the tracer would have to rebind)."""
    return {
        (module.__name__, key): id(value)
        for module in list(sys.modules.values())
        if module.__name__.startswith("cmtype")
        for key, value in vars(module).items()
        if callable(value)
    }


def test_tracer_rebinds_every_binding_and_restores_them():
    run.load_cmtype()
    before = _module_bindings()
    originals = {id(getattr(sys.modules[module], attr)) for module, attr in TRACED}
    tracer = Tracer()
    tracer.install(check_references=True)
    try:
        assert tracer.bindings()["cmtype.groebner.buchberger"] == 6
        assert len(tracer.bindings()) == len(TRACED)
        assert not originals & set(_module_bindings().values())
    finally:
        tracer.uninstall()
    assert _module_bindings() == before


def test_tracer_fails_loudly_on_a_reference_it_cannot_rebind():
    run.load_cmtype()
    buchberger = sys.modules["cmtype.groebner"].buchberger
    hidden = types.ModuleType("cmtype._hidden_reference")
    exec("def gb(source, engine=None):\n    return engine(source)\n", vars(hidden))
    hidden.gb.__defaults__ = (buchberger,)
    sys.modules[hidden.__name__] = hidden
    try:
        with pytest.raises(TracerError, match="buchberger"):
            Tracer().install(check_references=True)
        assert sys.modules["cmtype.groebner"].buchberger is buchberger  # rolled back
    finally:
        del sys.modules[hidden.__name__]


def test_harness_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gb-random", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
