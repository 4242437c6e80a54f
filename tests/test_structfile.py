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
from helpers import cube

# the rank-one coring over the rationals written out fully
EXPLICIT_CORING = """field Q
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

    assert cube(sf.algebras["A"])[0][0][0] == Fraction(1, 2)


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
    assert cube(sf.algebras["A"])[0][0][0] == 2


def test_bad_scalar_rejected():
    with pytest.raises(StructureError, match="bad scalar"):
        parse("field Q\nbegin algebra A\n  dim 1\n  unit [x]\n  mul [[[1]]]\nend\n")


def test_explicit_coring_block():
    text = EXPLICIT_CORING
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


def _value_lines(text: str):
    """(index, key, value) of each line of text whose value is a bracket
    list or an integer; key is everything before the value (the key and
    any degrees)."""
    for i, line in enumerate(text.split("\n")):
        if "[" in line:
            cut = line.index("[")
        elif line.split() and line.split()[-1].isdecimal() and line.startswith("  "):
            cut = line.rindex(" ") + 1
        else:
            continue
        yield i, line[:cut].rstrip(), line[cut:]


def _structural_mutations(text: str):
    """text with the value of one line replaced by a scalar, by `[]`, by
    the value inside one more level of brackets, or by nothing."""
    lines = text.split("\n")
    for i, key, value in _value_lines(text):
        for new in (f"{key} 5", f"{key} []", f"{key} [{value}]", key):
            yield "\n".join(lines[:i] + [new] + lines[i + 1:])


RHO_TEXT = fixture_file_text("trivial").replace("  trivial\n", "  rho 0 [[1]]\n  rho 1 [[1]]\n")


def test_structural_mutations_raise_only_structure_errors():
    texts = [fixture_file_text(n) for n in ("trivial", "regular", "nongalois", "sweedler")]
    count = 0
    for text in texts + [EXPLICIT_CORING, RHO_TEXT]:
        for mutated in _structural_mutations(text):
            count += 1
            try:
                main_structure(parse(mutated))
            except StructureError:
                pass
    assert count > 200


# inputs that escaped `parse` (or, for the empty group table, `--suite all`)
# with a Python exception before every value was checked against its shape
ESCAPES = {
    "unit-scalar": fixture_file_text("regular").replace("unit [1, 0]", "unit 5"),
    "mul-scalar": fixture_file_text("regular").replace(
        "mul [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]", "mul 3"),
    "left-scalar": EXPLICIT_CORING.replace("left [[[1]]]", "left 1"),
    "unit-nested": EXPLICIT_CORING.replace("unit [1]", "unit [[1]]", 1),
    "unit-nested-5000-deep": fixture_file_text("regular").replace(
        "unit [1, 0]", "unit " + "[" * 5000 + "1" + "]" * 5000),
    "mul-nested-4-deep": fixture_file_text("regular").replace(
        "mul [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]", "mul [[[[1, 0], [0, 1]], [[0, 1], [1, 0]]]]"),
    "x-without-value": EXPLICIT_CORING.replace("x 1 [1]", "x 1"),
    "rho-without-value": RHO_TEXT.replace("rho 0 [[1]]", "rho 0"),
    "delta-without-value": EXPLICIT_CORING.replace("delta 1 1 [[1]]", "delta 1 1"),
    "one-sided-component": EXPLICIT_CORING.replace("  left [[[1]]]\n", ""),
    "empty-group-table": fixture_file_text("regular").replace("table [[0, 1], [1, 0]]",
                                                              "table []"),
}


@pytest.mark.parametrize("name", sorted(ESCAPES))
def test_malformed_values_exit_two(name, tmp_path):
    text = ESCAPES[name]
    assert text not in (fixture_file_text("regular"), EXPLICIT_CORING, RHO_TEXT)
    with pytest.raises(StructureError):
        parse(text)
    path = tmp_path / "bad.coring"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["check", str(path), "--suite", "all"])
    assert rc == 2
    assert err.getvalue().startswith("error: line ")
