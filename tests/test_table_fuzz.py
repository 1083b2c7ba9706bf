"""Generated table files through ``eval --table``: the exit-code contract.

Every file, however hostile, must end in exit 0, 2 or 3 with no traceback,
within the bound the ``*_rejected_quickly`` tests in ``test_cli`` use.  Valid
files of one group shape load onto one shared descriptor object.
"""

import contextlib
import hashlib
import io
import json
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from monothetic import (
    CyclicScaled,
    ExtElement,
    GroupDescriptor,
    build_anchor_table,
    evaluate,
    load_table,
    save_table,
)
from monothetic.cli import main
from monothetic.rat import format_fraction
from monothetic.serialize import TABLE_VERSION, _shared_descriptor, dumps_stable

BOUND_S = 1
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# In lowest terms, as ``build`` writes them: the digest covers the canonical header.
fractions = st.builds(lambda p, q: format_fraction(Fraction(p, q)),
                      st.integers(1, 20), st.integers(1, 20))


@st.composite
def valid_headers(draw):
    """A canonical header for a table of depth N <= 64 that builds."""
    kind = draw(st.sampled_from(["capped_l1", "capped_linf", "cyclic_scaled",
                                 "rational_rotation"]))
    rank, moduli = 1, []
    if kind in ("capped_l1", "capped_linf"):
        rank = draw(st.integers(1, 3))
    elif kind == "cyclic_scaled":
        rank, moduli = 0, draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))
    spec = {"type": kind}
    if kind == "capped_l1":
        spec["weights"] = draw(st.lists(fractions, min_size=rank, max_size=rank))
    elif kind == "capped_linf":
        spec["scale"] = draw(fractions)
    elif kind == "rational_rotation":
        q = draw(st.integers(2, 20))
        spec["alpha"] = format_fraction(Fraction(draw(st.integers(1, q - 1)), q))
    return {
        "version": TABLE_VERSION,
        "descriptor": {"free_rank": rank, "torsion_moduli": moduli},
        "spec": spec,
        "N": draw(st.integers(1, 64)),
    }


def signed(header):
    """The header with the digest a build writes for it."""
    digest = hashlib.sha256(dumps_stable(header).encode()).hexdigest()
    return {**header, "sha256": digest}


MISSING = object()   # the key is deleted instead
hostile = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0, -1, 2, 65, 10 ** 7, 10 ** 20, -10 ** 20])
    | st.integers() | st.text(max_size=6)
    | st.sampled_from(["1/0", "-1/2", "0/1", " 1/2", "\u0661/\u0662", "9" * 5000 + "/1",
                       "capped_l1", "cyclic_scaled"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                               max_size=3),
    max_leaves=6,
) | st.just(MISSING)

# Where a hostile value goes: a header key, or a key inside descriptor or spec.
KEY_PATHS = [("version",), ("descriptor",), ("descriptor", "free_rank"),
             ("descriptor", "torsion_moduli"), ("spec",), ("spec", "type"),
             ("spec", "weights"), ("spec", "scale"), ("spec", "alpha"), ("N",), ("sha256",)]


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "table.json"


def run_eval(path, payload, header):
    """Write ``payload`` as the table file and evaluate an element against it."""
    path.write_text(json.dumps(payload))
    coords = header["descriptor"]["free_rank"] + len(header["descriptor"]["torsion_moduli"])
    element = json.dumps({"h": [0] * coords, "k": 10 ** 6 + 1})
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--table", str(path), "--element", element])
    assert time.perf_counter() - start < BOUND_S
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


@FUZZ
@given(header=valid_headers(), where=st.sampled_from(KEY_PATHS),
       value=hostile, resign=st.booleans())
def test_hostile_header_values(table_file, header, where, value, resign):
    payload = json.loads(json.dumps(header))
    parent = payload
    for key in where[:-1]:
        parent = parent[key]
    if value is MISSING:
        parent.pop(where[-1], None)
    else:
        parent[where[-1]] = value
    if where != ("sha256",):
        payload["sha256"] = signed(payload if resign else header)["sha256"]
    run_eval(table_file, payload, header)


@FUZZ
@given(header=valid_headers(), digest=st.text(max_size=64) | st.integers())
def test_wrong_digest_rejected(table_file, header, digest):
    assume(digest != signed(header)["sha256"])
    code, err = run_eval(table_file, {**header, "sha256": digest}, header)
    assert code == 2
    assert err.startswith("error: corrupted table")


@FUZZ
@given(header=valid_headers())
def test_right_digest_loads(table_file, header):
    code, err = run_eval(table_file, signed(header), header)
    assert code in (0, 3)
    assert err == ""


@FUZZ
@given(header=valid_headers(), depth=st.integers(1, 64))
def test_one_group_loads_one_descriptor(table_file, header, depth):
    # The same file twice, and another file of the same group at any depth.
    other = table_file.with_name("other.json")
    table_file.write_text(json.dumps(signed(header)))
    other.write_text(json.dumps(signed({**header, "N": depth})))
    first, again, apart = load_table(table_file), load_table(table_file), load_table(other)
    assert first.descriptor is again.descriptor is apart.descriptor
    group = header["descriptor"]
    assert first.descriptor == GroupDescriptor(group["free_rank"], tuple(group["torsion_moduli"]))


def test_shared_descriptors_stay_bounded(tmp_path):
    # More group shapes than the loader's cache holds, then the first again
    # after its eviction: the cache stays at its bound, and every loaded table
    # answers as the table built directly does.
    bound = _shared_descriptor.cache_info().maxsize
    moduli = list(range(2, bound + 18))
    path = tmp_path / "table.json"
    for q in moduli + moduli[:1]:
        descriptor = GroupDescriptor(0, (q,))
        built = build_anchor_table(descriptor, CyclicScaled(), 20)
        save_table(built, path)
        loaded = load_table(path)
        assert loaded.descriptor == descriptor
        assert _shared_descriptor.cache_info().currsize <= bound
        for x in (ExtElement(descriptor.element((1,)), 0),
                  built.anchor_element(9) - built.anchor_element(4),
                  built.anchor_element(12) + built.anchor_element(3)):
            assert evaluate(loaded, x) == evaluate(built, x)
    assert _shared_descriptor.cache_info().currsize == bound == 64
