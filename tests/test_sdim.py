"""Dimension theory: Krull super-dimension, gr, covers, rational points."""

import pickle

import pytest

from superalg.dsl import parse_poly
from superalg.groebner import SuperAlgebra, SuperIdeal, localize_at_even
from superalg.scalars import QQ
from superalg.sdim import (
    OddParamCertificate,
    PointIdeal,
    SuperDim,
    ZERO_RING_DIM,
    bar,
    covers_unit,
    gr_presentation,
    hilbert_slice_dims,
    is_odd_parameter_system,
    is_odd_regular_sequence,
    is_odd_weight_homogeneous,
    ksdim,
    leading_term_dim,
    phi_basis_lift,
    phi_dim_at_point,
    verify_cover,
)
from superalg.superpoly import StructureError, VarSet

from conftest import make_algebra


def corpus():
    return {
        "xy": make_algebra(("x",), ("y",), lambda vs: [vs.gen("x") * vs.gen("y")]),
        "xy1y2": make_algebra(
            ("x",), ("y1", "y2"), lambda vs: [vs.gen("x") * vs.gen("y1") * vs.gen("y2")]
        ),
        "lambda2": make_algebra((), ("y1", "y2")),
        "x2-y1y2": make_algebra(
            ("x",),
            ("y1", "y2"),
            lambda vs: [vs.gen("x") ** 2 - vs.gen("y1") * vs.gen("y2")],
        ),
        "x1x2": make_algebra(("x1", "x2"), ("y",), lambda vs: [vs.gen("x1") * vs.gen("x2")]),
    }


def test_superdim_ordering():
    assert SuperDim(1, 0) < SuperDim(1, 1) < SuperDim(2, 0)
    assert SuperDim(2, 1) - SuperDim(0, 1) == SuperDim(2, 0)
    assert SuperDim(1, 2).render() == "1|2"


def test_records_keep_value_semantics():
    d = SuperDim(1, 2)
    assert d == SuperDim(even=1, odd=2) and d != SuperDim(2, 1)
    assert d != (1, 2) and d.as_tuple() == (1, 2)
    assert hash(d) == hash(SuperDim(1, 2)) and len({d, SuperDim(1, 2), SuperDim(0, 1)}) == 2
    with pytest.raises(AttributeError):
        d.even = 3
    with pytest.raises(AttributeError):
        del d.odd
    assert d == SuperDim(1, 2)
    assert SuperDim(1, 2) <= d <= SuperDim(1, 3) and not SuperDim(1, 3) <= d
    assert SuperDim(0, 2) < d and not d < d
    assert SuperDim(3, 2) - d == SuperDim(2, 0)
    assert repr(d) == "SuperDim(even=1, odd=2)" and str(d) == "1|2"
    zero = SuperDim(ZERO_RING_DIM, 0)
    assert zero.render() == "-inf|0" and repr(zero) == "SuperDim(even=-inf, odd=0)"
    assert pickle.loads(pickle.dumps(d)) == d

    pt = PointIdeal({"x": 1})
    assert pt == PointIdeal({"x": 1}) and pt != PointIdeal({"x": 2})
    assert repr(pt) == "PointIdeal(point={'x': 1})"
    with pytest.raises(TypeError):
        hash(pt)

    cert = OddParamCertificate(["y"], 1)
    assert (cert.elements, cert.even_dim_witness, cert.reason) == (["y"], 1, "")
    assert cert == OddParamCertificate(elements=["y"], even_dim_witness=1, reason="")
    assert cert != OddParamCertificate(["y"], 1, "product is zero")
    assert repr(cert) == "OddParamCertificate(elements=['y'], even_dim_witness=1, reason='')"


def test_bar():
    A = corpus()["xy"]
    B = bar(A)
    assert B.vs.odd == ()
    assert B.relations == []  # x*y dies when y -> 0
    assert leading_term_dim(B) == 1


def test_bar_drops_repeated_images_in_order():
    vs = VarSet(("x",), ("y1", "y2"), QQ)
    x, y1, y2 = vs.gen("x"), vs.gen("y1"), vs.gen("y2")
    A = SuperAlgebra(vs, [x * x + y1 * y2, x * y1, x * x * x + x * y1 * y2, x * x - x * y1 * y2])
    assert [r.render() for r in bar(A).relations] == ["x^2", "x^3"]


def test_free_algebra_ksdim():
    for m in range(4):
        for n in range(4):
            A = make_algebra(
                tuple("x%d" % (i + 1) for i in range(m)),
                tuple("y%d" % (i + 1) for i in range(n)),
            )
            dim, cert = ksdim(A)
            assert dim.as_tuple() == (m, n), (m, n, dim)
            assert len(cert.elements) == n


def test_corpus_ksdim():
    expected = {
        "xy": (1, 0),
        "xy1y2": (1, 1),
        "lambda2": (0, 2),
        "x2-y1y2": (0, 2),
        "x1x2": (1, 1),
    }
    algebras = corpus()
    for name, want in expected.items():
        dim, cert = ksdim(algebras[name])
        assert dim.as_tuple() == want, (name, dim)
        if want[1]:
            ok, _ = is_odd_parameter_system(algebras[name], cert.elements)
            assert ok


def test_zero_ring():
    A = make_algebra(("x",), (), lambda vs: [vs.one()])
    dim, cert = ksdim(A)
    assert dim.even == ZERO_RING_DIM
    assert cert.reason == "zero ring"


def test_odd_parameter_certificate_details():
    A = corpus()["xy"]
    # y is not an odd parameter: Ann(y) contains x, dropping the dimension
    ok, cert = is_odd_parameter_system(A, [A.vs.gen("y")])
    assert not ok
    assert cert.reason


def test_odd_regular_sequences():
    L = corpus()["lambda2"]
    assert is_odd_regular_sequence(L, [L.vs.gen("y1")])
    assert is_odd_regular_sequence(L, [L.vs.gen("y1"), L.vs.gen("y2")])
    A = corpus()["xy"]
    assert not is_odd_regular_sequence(A, [A.vs.gen("y")])
    free = make_algebra(("x",), ("y",))
    assert is_odd_regular_sequence(free, [free.vs.gen("y")])
    # in the zero ring the annihilator of the zero product is everything,
    # as is the ideal of the elements, and still no sequence is regular
    zero = make_algebra(("x",), ("y",), lambda vs: [vs.one()])
    assert not is_odd_regular_sequence(zero, [zero.vs.gen("y")])


def test_gr_odd_weight_homogeneous_and_slices():
    for name, A in corpus().items():
        G = gr_presentation(A)
        assert all(is_odd_weight_homogeneous(r) for r in G.relations), name
        assert hilbert_slice_dims(A, 6) == hilbert_slice_dims(G, 6), name


def test_gr_of_graded_algebra_is_itself():
    A = corpus()["xy"]
    G = gr_presentation(A)
    assert sorted(r.render() for r in G.relations) == sorted(
        g.render() for g in A.module_gb
    )


def test_phi_dim_examples():
    # free exterior algebra on 3 generators: 3 odd generators at the origin
    L3 = make_algebra((), ("y1", "y2", "y3"))
    assert phi_dim_at_point(L3, PointIdeal({})) == 3
    # k[x|y]/(xy) at x = 1: y = 0 there, so no odd generators
    A = corpus()["xy"]
    assert phi_dim_at_point(A, PointIdeal({"x": QQ.of(1)})) == 0
    # same algebra at x = 0: y survives
    assert phi_dim_at_point(A, PointIdeal({"x": QQ.of(0)})) == 1
    with pytest.raises(StructureError):
        PointIdeal({"x1": QQ.of(1), "x2": QQ.of(1)}).validate(corpus()["x1x2"])


def test_oddly_regular_at_point():
    # a lifted minimal odd generating set that is an odd regular sequence
    free = make_algebra(("x",), ("y",))
    lifts = phi_basis_lift(free, PointIdeal({"x": QQ.of(0)}))
    assert lifts == [free.vs.gen("y")]
    assert is_odd_regular_sequence(free, lifts)
    A = corpus()["xy"]
    # at x = 1 the odd part needs no generators: trivially oddly regular
    assert phi_basis_lift(A, PointIdeal({"x": QQ.of(1)})) == []
    assert is_odd_regular_sequence(A, [])


def test_covers_and_localization():
    cases = [
        ("xy", ("x", "x - 1")),
        ("xy1y2", ("x", "x - 1")),
        ("lambda2", ("1",)),
        ("x2-y1y2", ("1",)),
        ("x1x2", ("x1", "x1 - 1")),
    ]
    algebras = corpus()
    for name, elts in cases:
        A = algebras[name]
        elements = [parse_poly(e, A.vs) for e in elts]
        assert covers_unit(A, elements), name
        report = verify_cover(A, elements)
        assert report["agrees"], (name, report)


def test_localized_dimension_drop():
    # away from x = 0, the odd direction of k[x|y]/(xy) disappears
    A = corpus()["xy"]
    loc, _ = localize_at_even(A, A.vs.gen("x"))
    dim, _ = ksdim(loc)
    assert dim.as_tuple() == (1, 0)


def test_the_empty_cover_of_the_zero_ring():
    """No element generates the zero ring's unit ideal, so the empty family
    covers it, and its maximum over no local dimensions is the zero ring's
    -inf|0."""
    zero = make_algebra(("x",), ("y",), lambda vs: [vs.one()])
    assert covers_unit(zero, [])
    report = verify_cover(zero, [])
    assert report == {
        "global": SuperDim(ZERO_RING_DIM, 0),
        "local": [],
        "even_max_indices": [],
        "cover_max": SuperDim(ZERO_RING_DIM, 0),
        "agrees": True,
    }
    with pytest.raises(StructureError, match="unit ideal"):
        verify_cover(make_algebra(("x",), ("y",)), [])
