"""Pinned bases of the hom and constraint solvers on the four fixtures.

Machine reports print dimensions, not bases, so a change in a chosen basis
would pass the CLI tests unnoticed.  Each digest is the sha256 of the
`Field.format` text of every entry a solver returns; reduced row echelon
form is unique, so a correct change to how the systems are assembled or
eliminated leaves every digest as it is.
"""

import hashlib

import pytest

import corings.dualring as dualring_mod
from corings.algebra import left_dual
from corings.comodules import (
    comodule_homs,
    coring_as_gcomodule,
    gcomodule_homs,
    pack_gcomodule,
    replicate_comodule,
)
from corings.dualring import check_component_bidual, dual_ring
from corings.fixtures import fixture
from corings.galois import comodule_from_grouplike
from corings.linalg import Mat
from corings.morita import (
    _ring_as_module,
    canonical_graded_module,
    coefficient_spaces,
    connecting_spaces,
    graded_hom,
)

PINNED = {
    'trivial': {
        'comodule_homs': '2a7717c5d25e00ae76e5afcad6055e0fc005746ad05a33c7c7a76dd36d5abdae',
        'gcomodule_homs': '206a3df3780bdadff8fd054a9f818170abe4f8c523a5c1b6210a9cfa138323a7',
        'graded_hom': '98819829f7625f26f3212de081987d0a374ad5925a814a2409bce1d171164262',
        'left_dual': '703158bc24f5f50ce1ef4b3638c5dbe420ddb74014257c8cd3546d0d46a1e60f',
        'connecting_space': '166d54a295cb2909dc41e55d5315b0b7fc5b72194cacf51290e0c6a10aff3974',
        'coefficient_space': '166d54a295cb2909dc41e55d5315b0b7fc5b72194cacf51290e0c6a10aff3974',
        'bidual': '704c2836ed42c2295f2ce49a1c611b4b49c36c8fd6ff88fc069f37b95510e6c9',
    },
    'regular': {
        'comodule_homs': '3d01f7fcc9af8681f2774b40a97366250797c2a2788f6b2bc3af530081ca057a',
        'gcomodule_homs': 'a069b541157d0d58469eebfe2b79123b91ef4952a9974dff31fe23415314ee96',
        'graded_hom': 'd30c2439004947c60f1b6f07a12621c86c3b6b8da88013259aeb65a6e34f63ef',
        'left_dual': '063a615c08f61e120ce194f2d94719883227aa067b888baacfc6bbb6ccb94943',
        'connecting_space': '3d9dc6eb52192ab6d0c99f7da87564dd12d7fa19d2dd5eebf0387681ff423ecc',
        'coefficient_space': '3a1af675aed72e70393d561b489ff221b2ea58a25a8c965cd88ea14346aeee58',
        'bidual': '28cf8ec07ab232f0d857b4d5533467bf0ce0f3f82bce6a8d6cec2d3460fde05a',
    },
    'nongalois': {
        'comodule_homs': '8e70d3efaeb5ee5a8f6cddab0341e1113a1fb143bea82e24739566adcc980011',
        'gcomodule_homs': 'df51c033f0852c6b2c7882f09b78bef41c2628bedbaeb4c6b99684a8eccfe1e6',
        'graded_hom': 'dcfc5b97406057feea8623b5efd847fd5f1a73d99e311d46d4e08b0785cdd3ef',
        'left_dual': '4bb7ba7cf779bd625bff57ac543fd9c620d3f9d85b18af84c289b7946e178aaa',
        'connecting_space': '3a1af675aed72e70393d561b489ff221b2ea58a25a8c965cd88ea14346aeee58',
        'coefficient_space': '166d54a295cb2909dc41e55d5315b0b7fc5b72194cacf51290e0c6a10aff3974',
        'bidual': '4aed87479828229d9a657794de01a31f1fc99089250554792bef5ed057f50877',
    },
    'sweedler': {
        'comodule_homs': 'a659975a13e5fde1b7ca8b9fc0f2400e30af77f8fa45bda54d9378751a360669',
        'gcomodule_homs': '6ec8a03602d170c281252c8f25f9b7ed3f0654d427c6f3faccfeb54b51c41871',
        'graded_hom': 'ebf315145595dde098fc53e4185fc0bd07c3a9ad3eab7a6eba70635520895940',
        'left_dual': '3afa3be78405442eb575b2997396f4d05e7362398d4d950d31df6c3255f5c228',
        'connecting_space': '80a93a380ce7b7b8ddc1e9854f866ae5c60fa60f2755dce06ad4bf7a871f866f',
        'coefficient_space': '0c40bfff205e9f9c501100ddf83f11a9e2069b760fd921b217398c8556c7d58c',
        'bidual': 'fe96182447175965ad2a8232712a9afee3fdb5d431f691e360a35cd2644b0b82',
    },
}


def _text(field, obj) -> str:
    if isinstance(obj, Mat):
        return ",".join(field.format(x) for x in obj.data)
    return "[" + ";".join(_text(field, o) for o in obj) + "]"


def _digest(field, obj) -> str:
    return hashlib.sha256(_text(field, obj).encode()).hexdigest()


def solver_outputs(name: str) -> dict:
    """Every pinned solver output on one fixture, keyed by solver."""
    fx = fixture(name)
    c, x = fx.coring, fx.grouplike
    g = c.group
    r = dual_ring(c)
    out = {}
    acom = comodule_from_grouplike(x)
    cg = coring_as_gcomodule(c)
    pairs = [(replicate_comodule(acom), acom), (cg, pack_gcomodule(cg)[0])]
    out["comodule_homs"] = [[f for (f,) in comodule_homs(pack_gcomodule(gm)[0], n).basis()]
                            for gm, n in pairs]
    out["gcomodule_homs"] = [gcomodule_homs(gm, replicate_comodule(n)).basis() for gm, n in pairs]
    agm = canonical_graded_module(x, r)
    rm = _ring_as_module(r)
    out["graded_hom"] = [graded_hom(m, n, sigma)
                         for m, n in ((agm, agm), (agm, rm), (rm, rm))
                         for sigma in g.elements()]
    out["left_dual"] = [left_dual(comp)[1] for comp in c.comps]
    out["connecting_space"] = list(connecting_spaces(x, r))
    out["coefficient_space"] = list(coefficient_spaces(x, r))
    seen = []
    original = dualring_mod.rowspace_coords

    def recording(basis, rows):  # the basis once per evaluation solved in it
        seen.extend([basis] * rows.rows)
        return original(basis, rows)

    dualring_mod.rowspace_coords = recording
    try:
        assert check_component_bidual(c, r).ok
    finally:
        dualring_mod.rowspace_coords = original
    out["bidual"] = seen
    return out


def digests(name: str) -> dict:
    field = fixture(name).coring.base.field
    return {key: _digest(field, val) for key, val in solver_outputs(name).items()}


@pytest.mark.parametrize("name", ["trivial", "regular", "nongalois", "sweedler"])
def test_solver_bases_are_pinned(name):
    assert digests(name) == PINNED[name]


if __name__ == "__main__":
    for fx_name in ("trivial", "regular", "nongalois", "sweedler"):
        print(f"    {fx_name!r}: {{")
        for key, val in digests(fx_name).items():
            print(f"        {key!r}: {val!r},")
        print("    },")
