"""Bundled fixtures: the smallest structures exercising the Galois-true,
Galois-false and cofree-but-nontrivial code paths.

* trivial:   every component is the base field, index group of order two.
* regular:   the order-two group algebra coacting on itself through tagged
             copies of its own Hopf structure (Galois).
* nongalois: the field with the trivial coaction over the same Hopf family
             (the canonical comparison drops dimension).
* sweedler:  the cofree coring on the two-sided tensor square of the split
             quadratic extension of the rationals (Galois, base nontrivial).

Each fixture is a structure file shipped with the package as
`data/<name>.coring`; `fixture_file_text` reads it and `fixture` is the
structure parsed from it, so the file is the only definition.  A new
fixture is a new file in `data/` and its name in `FIXTURES`.
"""

from __future__ import annotations

from functools import lru_cache
from importlib.resources import files

from corings.structfile import MainStructure, main_structure, parse

FIXTURES = ("trivial", "regular", "nongalois", "sweedler")


@lru_cache(maxsize=None)
def fixture(name: str) -> MainStructure:
    """The main structure of a bundled fixture, parsed from its file."""
    return main_structure(parse(fixture_file_text(name)))


def fixture_file_text(name: str) -> str:
    """The structure-definition file for a bundled fixture."""
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; known: {sorted(FIXTURES)}")
    return (files("corings") / "data" / f"{name}.coring").read_text()
