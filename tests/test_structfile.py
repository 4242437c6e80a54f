"""Structure file parsing: happy paths, explicit blocks, and errors."""

import contextlib
import io
import random
import time

import pytest

from corings.cli import main
from corings.coring import group_corings_equal, validate_group_coring
from corings.fixtures import fixture, fixture_file_text
from corings.galois import validate_grouplike
from corings.scalars import Field
from corings.structfile import StructureError, main_structure, parse


def test_fixture_files_parse_and_match_builders():
    for name in ("trivial", "regular", "nongalois", "sweedler"):
        sf = parse(fixture_file_text(name))
        ms = main_structure(sf)
        fx = fixture(name)
        assert group_corings_equal(ms.coring, fx.coring), name
        assert ms.grouplike.vectors == fx.grouplike.vectors, name
        assert ms.base.mat == fx.base.mat, name


def test_empty_file_reports_missing_field():
    with pytest.raises(StructureError, match="field"):
        parse("")


def test_bytes_input_is_accepted():
    sf = parse(fixture_file_text("trivial").encode())
    assert main_structure(sf).coring is not None


def test_non_utf8_bytes_rejected():
    with pytest.raises(StructureError, match="utf-8"):
        parse(b"\xff\xfe field Q")


def test_dangling_reference_names_the_culprit():
    text = "field Q\nbegin bimodule M\n  base NOPE\n  dim 1\nend\n"
    with pytest.raises(StructureError, match="NOPE"):
        parse(text)


def test_syntax_error_carries_line_number():
    text = "field Q\nbegin group G\n  table [[0,1],[1,0]\nend\n"
    with pytest.raises(StructureError):
        parse(text)
    try:
        parse("field Q\nnonsense\n")
    except StructureError as exc:
        assert exc.line == 2


def test_identity_must_be_index_zero():
    text = "field Q\nbegin group G\n  table [[1,0],[0,1]]\nend\n"
    with pytest.raises(StructureError, match="identity"):
        parse(text)


def test_unclosed_block_reported():
    with pytest.raises(StructureError, match="never closed"):
        parse("field Q\nbegin group G\n  table [[0]]\n")


def test_rational_literals():
    text = """field Q
begin algebra A
  dim 1
  unit [1]
  mul [[[1/2]]]
end
"""
    sf = parse(text)
    from fractions import Fraction

    assert sf.algebras["A"].mul[0][0][0] == Fraction(1, 2)


def test_prime_field_literals():
    text = """field Fp 5
begin algebra A
  dim 1
  unit [1]
  mul [[[7]]]
end
"""
    sf = parse(text)
    assert sf.field.p == 5
    assert sf.algebras["A"].mul[0][0][0] == 2


def test_bad_scalar_rejected():
    with pytest.raises(StructureError, match="bad scalar"):
        parse("field Q\nbegin algebra A\n  dim 1\n  unit [x]\n  mul [[[1]]]\nend\n")


def test_explicit_coring_block():
    # the rank-one coring over the rationals written out fully
    text = """field Q
begin group G
  table [[0, 1], [1, 0]]
end
begin algebra A
  dim 1
  unit [1]
  mul [[[1]]]
end
begin algebra B
  dim 1
  unit [1]
  mul [[[1]]]
end
begin bimodule M
  base A
  dim 1
  left [[[1]]]
  right [[[1]]]
end
begin coring C
  group G
  base A
  comp 0 M
  comp 1 M
  delta 0 0 [[1]]
  delta 0 1 [[1]]
  delta 1 0 [[1]]
  delta 1 1 [[1]]
  counit [[1]]
end
begin grouplike X
  coring C
  x 0 [1]
  x 1 [1]
end
begin morphism IB
  src B
  dst A
  mat [[1]]
end
begin main
  coring C
  grouplike X
  base IB
end
"""
    ms = main_structure(parse(text))
    assert validate_group_coring(ms.coring).ok
    assert validate_grouplike(ms.grouplike).ok
    trivial = fixture("trivial")
    assert group_corings_equal(ms.coring, trivial.coring)


def test_explicit_rho_comodule_algebra():
    # spell out the trivial coaction instead of using the keyword
    text = fixture_file_text("trivial").replace(
        "  trivial\n", "  rho 0 [[1]]\n  rho 1 [[1]]\n")
    ms = main_structure(parse(text))
    assert group_corings_equal(ms.coring, fixture("trivial").coring)


def test_missing_main_block():
    text = fixture_file_text("trivial")
    text = text[: text.index("begin main")]
    sf = parse(text)
    with pytest.raises(StructureError, match="main"):
        main_structure(sf)


def test_grouplike_without_canonical_data():
    text = """field Q
begin group G
  table [[0]]
end
begin algebra A
  dim 1
  unit [1]
  mul [[[1]]]
end
begin bimodule M
  base A
  dim 1
  left [[[1]]]
  right [[[1]]]
end
begin coring C
  group G
  base A
  comp 0 M
  delta 0 0 [[1]]
  counit [[1]]
end
begin grouplike X
  coring C
  canonical
end
"""
    with pytest.raises(StructureError, match="canonical"):
        parse(text)


def test_duplicate_key_rejected():
    with pytest.raises(StructureError, match="duplicate"):
        parse("field Q\nbegin algebra A\n  dim 1\n  dim 2\n  unit [1]\n  mul [[[1]]]\nend\n")


def test_modulus_primality_is_decided_exactly():
    with pytest.raises(ValueError, match="not prime"):
        Field(561)  # a Carmichael number
    assert Field(2 ** 61 - 1).p == 2 ** 61 - 1


def test_modulus_above_cap_rejected():
    with pytest.raises(StructureError, match="below 2\\^64"):
        parse(f"field Fp {2 ** 64 + 13}\n")


def test_large_modulus_field_line_returns_quickly(tmp_path):
    path = tmp_path / "big.coring"
    path.write_text("field Fp 1000000000000000003\n")
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(["check", str(path), "--suite", "validate"])
    assert rc == 2
    assert time.perf_counter() - start < 1.0


def test_group_table_entries_out_of_range_rejected():
    text = fixture_file_text("regular").replace("table [[0, 1], [1, 0]]", "table [[0, 1], [1, 4]]")
    with pytest.raises(StructureError, match=r"\[0, 2\)"):
        parse(text)


def test_non_square_group_table_rejected():
    text = fixture_file_text("regular").replace("table [[0, 1], [1, 0]]", "table [[0, 1], [1]]")
    with pytest.raises(StructureError, match="square"):
        parse(text)


def test_action_that_does_not_descend_rejected():
    text = fixture_file_text("regular").replace(
        "mul [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]", "mul [[[0, 0], [0, 1]], [[0, 1], [1, 0]]]")
    with pytest.raises(StructureError, match="does not descend"):
        parse(text)


def test_digit_mutations_raise_only_structure_errors():
    rng = random.Random(0)
    texts = [fixture_file_text(n) for n in ("trivial", "regular", "nongalois", "sweedler")]
    for _ in range(400):
        text = rng.choice(texts)
        pos = rng.choice([i for i, ch in enumerate(text) if ch.isdigit()])
        digit = rng.choice([d for d in "0123456789" if d != text[pos]])
        try:
            parse(text[:pos] + digit + text[pos + 1:])
        except StructureError:
            pass
