"""Workload corpora of the cmtype benchmark.

An item is one CLI invocation: a subcommand and the text of one presentation
file.  The catalog corpus is frozen under ``corpus/`` so that its inputs, and
hence its pinned digests, never depend on the code under test.  The random
Groebner corpus is a fixed pool of seeded dense ideals; a run's ``--seed``
draws one pool member per shape, so every input any seed can produce is
pinned in ``pins.json``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

# Frozen from `cmtype generate FAMILY ARGS`; the file stem names the item.
CATALOG = (
    "gw12",
    "graded12",
    "binary_form_2-1",
    "binary_form_1-1-1-1",
    "quadric_3_4",
    "quadric_4_4",
    "quadric_3_5",
    "scroll_4",
    "scroll_1-2",
    "scroll_1-3",
    "scroll_2-2",
    "scroll_1-1-1",
    "scroll_1-1-2",
    "scroll_2-3",
    "scroll_3-4",
    "scroll_1-1-1-2",
    "veronese_cone_5",
    "veronese_cone_6",
)

# (tag, number of variables, generator degrees) of the random dense ideals.
GB_SHAPES = (
    ("4q5v", 5, (2, 2, 2, 2)),
    ("4q6v", 6, (2, 2, 2, 2)),
    ("5q6v", 6, (2, 2, 2, 2, 2)),
    ("3q1c5v", 5, (2, 2, 2, 3)),
    ("3c4v", 4, (3, 3, 3)),
)
GB_POOL = 16  # pool members per shape, all pinned

WORKLOADS = {
    "classify-catalog": "classify",
    "analyze-catalog": "analyze",
    "gb-random": "gb",
}


@dataclass(frozen=True)
class Item:
    name: str
    subcommand: str
    text: str


def _monomials(nvars: int, degree: int):
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        yield exps


def _random_form(rng: random.Random, nvars: int, degree: int) -> str:
    """Dense homogeneous form with coefficients drawn from [-2, 2], as in
    ``tests/oracles.py``; redrawn until nonzero."""
    while True:
        terms = []
        for exps in _monomials(nvars, degree):
            c = rng.randint(-2, 2)
            if c:
                mono = "*".join(
                    f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e
                )
                terms.append(f"{c}*{mono}")
        if terms:
            return " + ".join(terms).replace("+ -", "- ")


def gb_pool_item(shape: int, index: int) -> Item:
    tag, nvars, degrees = GB_SHAPES[shape]
    rng = random.Random(f"gb-random:{tag}:{index}")
    forms = [_random_form(rng, nvars, d) for d in degrees]
    text = (
        "ring: " + ", ".join(f"x{i + 1}" for i in range(nvars)) + "\n"
        "ideal: " + ", ".join(forms) + "\n"
    )
    return Item(f"{tag}#{index:02d}", "gb", text)


def catalog_item(stem: str, subcommand: str) -> Item:
    return Item(stem, subcommand, (CORPUS_DIR / f"{stem}.ring").read_text(encoding="utf-8"))


def all_items(workload: str) -> list[Item]:
    """Every input the workload can draw under any seed (what ``pins.json`` covers)."""
    subcommand = WORKLOADS[workload]
    if subcommand == "gb":
        return [gb_pool_item(s, i) for s in range(len(GB_SHAPES)) for i in range(GB_POOL)]
    return [catalog_item(stem, subcommand) for stem in CATALOG]


def corpus(workload: str, seed: int) -> list[Item]:
    """The items one pass runs, in canonical order."""
    subcommand = WORKLOADS[workload]
    if subcommand == "gb":
        rng = random.Random(seed)
        return [gb_pool_item(s, rng.randrange(GB_POOL)) for s in range(len(GB_SHAPES))]
    return [catalog_item(stem, subcommand) for stem in CATALOG]


def pass_orders(n_items: int, seed: int):
    """Endless per-pass item orders: a fresh seeded shuffle for each pass."""
    rng = random.Random(f"order:{seed}")
    while True:
        order = list(range(n_items))
        rng.shuffle(order)
        yield order
