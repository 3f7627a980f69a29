import pytest

from petrimod import Interface, harmonic_pairs
from petrimod.errors import MalformedModule, NonDisjointInterfaces

from conftest import node


def _label_map(*nodes):
    table = {n.id: n.label for n in nodes}
    return lambda nid: table[nid]


def test_per_label_indices_count_up_in_slot_order():
    ns = [node("r", f"n{i}", lab) for i, lab in enumerate(["alpha", "beta", "alpha", "alpha"])]
    iface = Interface(tuple(n.id for n in ns))
    slots = iface.indexed(_label_map(*ns))
    assert list(slots.values()) == [
        ("alpha", 1), ("beta", 1), ("alpha", 2), ("alpha", 3),
    ]


def test_duplicate_slot_rejected():
    a = node("r", "a", "alpha")
    with pytest.raises(MalformedModule):
        Interface((a.id, a.id))


def test_index_of_and_labels():
    ns = [node("r", "a", "alpha"), node("r", "b", "beta")]
    iface = Interface((ns[0].id, ns[1].id))
    label_of = _label_map(*ns)
    assert iface.indexed(label_of)[ns[1].id] == ("beta", 1)
    assert iface.labels(label_of) == ("alpha", "beta")


def test_three_pairs_across_two_alpha_and_one_beta():
    # R carries alpha,alpha,beta; S carries alpha,alpha,alpha,beta,beta:
    # matches exist per label up to the smaller count, at indices 1..min
    r = [node("r", f"r{i}", lab) for i, lab in enumerate(["alpha", "alpha", "beta"])]
    s = [node("s", f"s{i}", lab) for i, lab in enumerate(["alpha", "alpha", "alpha", "beta", "beta"])]
    pairs = harmonic_pairs(
        Interface(tuple(n.id for n in r)),
        Interface(tuple(n.id for n in s)),
        _label_map(*r, *s),
    )
    assert [(p.label, p.index) for p in pairs] == [("alpha", 1), ("alpha", 2), ("beta", 1)]
    assert [(p.left, p.right) for p in pairs] == [
        (r[0].id, s[0].id), (r[1].id, s[1].id), (r[2].id, s[3].id),
    ]


def test_pairs_come_sorted_by_label_then_index():
    r = [node("r", f"r{i}", lab) for i, lab in enumerate(["beta", "alpha", "beta"])]
    s = [node("s", f"s{i}", lab) for i, lab in enumerate(["beta", "beta", "alpha"])]
    pairs = harmonic_pairs(Interface(tuple(n.id for n in r)), Interface(tuple(n.id for n in s)), _label_map(*r, *s))
    assert [(p.label, p.index, p.left, p.right) for p in pairs] == [
        ("alpha", 1, r[1].id, s[2].id), ("beta", 1, r[0].id, s[0].id), ("beta", 2, r[2].id, s[1].id),
    ]


def test_single_pair_when_only_first_alpha_matches():
    r = [node("r", f"r{i}", lab) for i, lab in enumerate(["alpha", "alpha", "beta"])]
    s = [node("s", f"s{i}", lab) for i, lab in enumerate(["alpha", "gamma"])]
    pairs = harmonic_pairs(
        Interface(tuple(n.id for n in r)),
        Interface(tuple(n.id for n in s)),
        _label_map(*r, *s),
    )
    assert len(pairs) == 1
    assert (pairs[0].label, pairs[0].index) == ("alpha", 1)


def test_empty_side_yields_no_pairs():
    s = [node("s", "s0", "alpha")]
    pairs = harmonic_pairs(Interface(), Interface((s[0].id,)), _label_map(*s))
    assert pairs == ()


def test_shared_node_rejected():
    a = node("x", "a", "alpha")
    b = node("x", "b", "alpha")
    with pytest.raises(NonDisjointInterfaces) as exc:
        harmonic_pairs(Interface((a.id,)), Interface((a.id, b.id)), _label_map(a, b))
    assert a.id in exc.value.shared
