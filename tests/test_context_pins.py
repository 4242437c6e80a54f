"""Pinned Morita contexts and graded structure constants on the four fixtures.

The machine reports print verdicts, not the assembled matrices, so a change
to how a context's bimodules and connecting maps are laid out in degree
blocks would pass the CLI tests unnoticed.  Each digest is the sha256 of the
`Field.format` text of every entry of `p.left`, `p.right`, `q.left`,
`q.right`, `tau` and `mu` (for an algebra: of its structure constants and
its unit); run this file as a script to print them.  Besides the four
fixtures, whose group has exponent two and so cannot tell a degree from its
inverse, the regular comodule algebra k[C_3] over QQ and the triangular
family of `helpers.triangular_family` over GF(7) are pinned too.
"""

import hashlib

import pytest

from corings.algebra import field_algebra
from corings.dualring import group_ring
from corings.fixtures import fixture
from corings.galois import RingMorphism
from corings.hopf import (
    cofree_hopf,
    coring_from_comodule_algebra,
    regular_comodule_algebra,
)
from corings.linalg import Mat
from corings.morita import context_from_graded_module, group_ring_context
from corings.scalars import QQ
from corings.structfile import Derived, MainStructure
from helpers import cube, cyclic_group, from_cols, group_hopf_algebra, triangular_family

PINNED = {
    'trivial': {
        'morita_context': '617657d480c696c4647fde3c34307587616985405427b63d0e20761d772cbf00',
        'graded_morita_context': '41e745e1eb06d9a85f27f650e01da19603c5bd3ab3586ad3eaeaddbfd70f3536',
        'twisted_ring': '9ae5625c6ef8835e640a7fac4ef621e5dc4be838c39d0443e703addb45b1b6fc',
        'morita_context_weak': '617657d480c696c4647fde3c34307587616985405427b63d0e20761d772cbf00',
        'graded_morita_context_weak': '41e745e1eb06d9a85f27f650e01da19603c5bd3ab3586ad3eaeaddbfd70f3536',
        'twisted_ring_weak': '9ae5625c6ef8835e640a7fac4ef621e5dc4be838c39d0443e703addb45b1b6fc',
        'context_from_graded_module': '41e745e1eb06d9a85f27f650e01da19603c5bd3ab3586ad3eaeaddbfd70f3536',
        'group_ring_context': '41e745e1eb06d9a85f27f650e01da19603c5bd3ab3586ad3eaeaddbfd70f3536',
        'packed_ring': '9ae5625c6ef8835e640a7fac4ef621e5dc4be838c39d0443e703addb45b1b6fc',
        'group_ring': '9ae5625c6ef8835e640a7fac4ef621e5dc4be838c39d0443e703addb45b1b6fc',
    },
    'regular': {
        'morita_context': '2859938d76de6a7cf4d5ad59e14251fa83d63d3c95f2cebb053fe7f3e8631646',
        'graded_morita_context': '7b401d8558d301195ccc6fabf94f7d06e2b7e7a4082586409bf4b1099255f9b1',
        'twisted_ring': '9ae5625c6ef8835e640a7fac4ef621e5dc4be838c39d0443e703addb45b1b6fc',
        'morita_context_weak': '2859938d76de6a7cf4d5ad59e14251fa83d63d3c95f2cebb053fe7f3e8631646',
        'graded_morita_context_weak': '7b401d8558d301195ccc6fabf94f7d06e2b7e7a4082586409bf4b1099255f9b1',
        'twisted_ring_weak': '9ae5625c6ef8835e640a7fac4ef621e5dc4be838c39d0443e703addb45b1b6fc',
        'context_from_graded_module': 'a433166d159d2c3af7827f4bfe42ec7b0668e9a4c17d4428df227e192b834b3c',
        'group_ring_context': '7b401d8558d301195ccc6fabf94f7d06e2b7e7a4082586409bf4b1099255f9b1',
        'packed_ring': '35f4530a296678b6284f5c3281f231ff824a54fa9bd142757cebd4b8ae2a28cc',
        'group_ring': '4a40824248028ab438f99add4947bcd0c6b1f6d833524634d24f19e063c3716f',
    },
    'nongalois': {
        'morita_context': 'd17e06b9954bad4e01b38c2ebdc504ae06f6d729184eca7cc8b8abe9ae25ae20',
        'graded_morita_context': 'ea63313c2b09b1e5d11659b8ee7543ee06ebf5cfd0492b29974836df885a98d4',
        'twisted_ring': '9ae5625c6ef8835e640a7fac4ef621e5dc4be838c39d0443e703addb45b1b6fc',
        'morita_context_weak': 'd17e06b9954bad4e01b38c2ebdc504ae06f6d729184eca7cc8b8abe9ae25ae20',
        'graded_morita_context_weak': 'ea63313c2b09b1e5d11659b8ee7543ee06ebf5cfd0492b29974836df885a98d4',
        'twisted_ring_weak': '9ae5625c6ef8835e640a7fac4ef621e5dc4be838c39d0443e703addb45b1b6fc',
        'context_from_graded_module': 'ea63313c2b09b1e5d11659b8ee7543ee06ebf5cfd0492b29974836df885a98d4',
        'packed_ring': '890837e7bde40a70f49349a81b34873798af70c1cab745ecef809d82428c1cd7',
        'group_ring': '9ae5625c6ef8835e640a7fac4ef621e5dc4be838c39d0443e703addb45b1b6fc',
    },
    'sweedler': {
        'morita_context': '891628f12c108d341afd5d2d1493f86fc3e531b5e88b10784bbabf5df17b97fe',
        'graded_morita_context': 'd3402e255bac1e8749e392c51cbeb252ba2e050debb177bdd1e21aad5748bb95',
        'twisted_ring': '9ae5625c6ef8835e640a7fac4ef621e5dc4be838c39d0443e703addb45b1b6fc',
        'morita_context_weak': '891628f12c108d341afd5d2d1493f86fc3e531b5e88b10784bbabf5df17b97fe',
        'graded_morita_context_weak': 'd3402e255bac1e8749e392c51cbeb252ba2e050debb177bdd1e21aad5748bb95',
        'twisted_ring_weak': '9ae5625c6ef8835e640a7fac4ef621e5dc4be838c39d0443e703addb45b1b6fc',
        'context_from_graded_module': 'd3402e255bac1e8749e392c51cbeb252ba2e050debb177bdd1e21aad5748bb95',
        'group_ring_context': 'd3402e255bac1e8749e392c51cbeb252ba2e050debb177bdd1e21aad5748bb95',
        'packed_ring': 'b65cfd2a421eeaf8c37a2963f6d31a42425bc5a1c01c7944b5505800f1f6e26e',
        'group_ring': '890837e7bde40a70f49349a81b34873798af70c1cab745ecef809d82428c1cd7',
    },
    'regular3': {
        'morita_context': '2ca97b061ce13c2e3d887932b92cb068a6c400c73f0ff6fb71f79fa8a09ac903',
        'graded_morita_context': 'bcb03ce9c8fefa19e34997cf796761d90fc2955d3b359566553efca0bcd4d089',
        'twisted_ring': 'c585ca505b6ba9e015a54eb3ac77b3750d7221d0c012594fe063bb7e90ba9c96',
        'morita_context_weak': '2ca97b061ce13c2e3d887932b92cb068a6c400c73f0ff6fb71f79fa8a09ac903',
        'graded_morita_context_weak': 'bcb03ce9c8fefa19e34997cf796761d90fc2955d3b359566553efca0bcd4d089',
        'twisted_ring_weak': 'c585ca505b6ba9e015a54eb3ac77b3750d7221d0c012594fe063bb7e90ba9c96',
        'context_from_graded_module': '82c636e4dbee7efde67a67b44c48e395cdfefe2939c10ac389fe48c311fef2d3',
        'group_ring_context': 'bcb03ce9c8fefa19e34997cf796761d90fc2955d3b359566553efca0bcd4d089',
        'packed_ring': 'b2c01ad6c0eeec41d3572199bea73d986838f52690aa5ece0e9e0035f82a08ba',
        'group_ring': '3976370fabedae451dd8058d4a4d7b8836d360f3d2a88c784b3c8d1cd494ef99',
    },
    'triangular': {
        'morita_context': '634ee2fd15e201f31a3a100c9f3d8182ebe8ed220326ea3f059fc69038e6769c',
        'graded_morita_context': '58557831fcc8e77e3ce749e7974b49581da8039e2d8c443f4b1835a50fd006e6',
        'twisted_ring': '0b3c7af79a234131c112ebab72411f8e9cbf2b490647371691663914d6df9d9d',
        'morita_context_weak': '634ee2fd15e201f31a3a100c9f3d8182ebe8ed220326ea3f059fc69038e6769c',
        'graded_morita_context_weak': '58557831fcc8e77e3ce749e7974b49581da8039e2d8c443f4b1835a50fd006e6',
        'twisted_ring_weak': '0b3c7af79a234131c112ebab72411f8e9cbf2b490647371691663914d6df9d9d',
        'context_from_graded_module': '43b4f95f0d15fb82e7aadcc3c002b30e617e520e0eacff1494117ff6e535ea2b',
        'packed_ring': '7aa92582b35029cbf2cb282b4ebeda732b5cd7036df85a0144b0aede3b4002be',
        'group_ring': '7aa92582b35029cbf2cb282b4ebeda732b5cd7036df85a0144b0aede3b4002be',
    },
}
NAMES = list(PINNED)


def _fixture(name: str) -> MainStructure:
    if name == "triangular":
        x = triangular_family()
        a = x.coring.base
        b = RingMorphism(field_algebra(a.field), a, from_cols(a.field, [a.unit]))
        return MainStructure(x.coring, x, b, None, None)
    if name != "regular3":
        return fixture(name)
    g = cyclic_group(3)
    ha = group_hopf_algebra(QQ, g)
    coring, x = coring_from_comodule_algebra(regular_comodule_algebra(cofree_hopf(ha, g), ha))
    b = RingMorphism(field_algebra(QQ), ha.algebra, from_cols(QQ, [ha.algebra.unit]))
    return MainStructure(coring, x, b, None, None)


def _text(field, obj) -> str:
    if hasattr(obj, "data"):
        return ",".join(field.format(x) for x in obj.data)
    if isinstance(obj, (tuple, list)):
        return "[" + ";".join(_text(field, o) for o in obj) + "]"
    return field.format(obj)


def _context(ctx) -> tuple:
    return (ctx.p.left, ctx.p.right, ctx.q.left, ctx.q.right, ctx.tau, ctx.mu)


def _constants(alg) -> tuple:
    return (cube(alg), alg.unit)


def pinned_objects(name: str) -> dict:
    """Every pinned context and algebra on one fixture, keyed by builder."""
    fx = _fixture(name)
    c = fx.coring
    g = c.group
    d = Derived(c, fx.grouplike, fx.base, fx.witness)
    out = {}
    for tag, morita, graded, coefficients in (
            ("", d.morita, d.graded_morita, d.coefficients),
            ("_weak", d.weak_morita, d.weak_graded_morita, d.weak_coefficients)):
        out["morita_context" + tag] = _context(morita[0])
        out["graded_morita_context" + tag] = _context(graded[0].ctx)
        out["twisted_ring" + tag] = _constants(coefficients.twisted.algebra)
    out["context_from_graded_module"] = _context(
        context_from_graded_module(d.canonical_module)[0].ctx)
    if d.witness is not None:
        out["group_ring_context"] = _context(group_ring_context(d.slice.morita[0], g).ctx)
    out["packed_ring"] = _constants(d.dual_ring.packed().algebra)
    out["group_ring"] = _constants(group_ring(c.base, g).algebra)
    return out


def digests(name: str) -> dict:
    field = _fixture(name).coring.base.field
    return {key: hashlib.sha256(_text(field, val).encode()).hexdigest()
            for key, val in pinned_objects(name).items()}


@pytest.mark.parametrize("name", NAMES)
def test_contexts_are_pinned(name):
    assert digests(name) == PINNED[name]


if __name__ == "__main__":
    for fx_name in NAMES:
        print(f"    {fx_name!r}: {{")
        for key, val in digests(fx_name).items():
            print(f"        {key!r}: {val!r},")
        print("    },")
