"""The package orders node ids through their cached `key` only: with
NodeId's `<` and `>` refusing, every writer, witness and sweep gives the
bytes it gives without the patch."""

import contextlib
import io

import pytest

from petrimod import (IsoOptions, NodeId, dumps, evaluate, factorize, fixture_path, isomorphic, net_to_module,
                      parse, reachability, seam, to_dot, to_pnml, transition_atom, validate_net)
from petrimod.cli import main
from petrimod.errors import AbstractNodePresent, NotBipartite
from petrimod.nets import NetView

from conftest import module, node

RING = 50  # philosophers: 250 nodes


def _ring_source() -> str:
    src = fixture_path("philosophers.hkl").read_text(encoding="utf-8")
    return src + "\nring := (" + " . ".join(["phil_with_forks"] * RING) + ")^c\n"


def _outputs(phil_env, prod_env, ring_path) -> list:
    ring = evaluate(parse(_ring_source()), "ring")
    modules = [evaluate(env, name) for env in (phil_env, prod_env) for name in env.names()] + [ring]
    out = []
    for m in modules:
        out += [dumps(m), to_dot(m)]
        try:
            view = validate_net(m)
        except AbstractNodePresent:
            continue
        out.append(to_pnml(m))
        result = factorize(view)
        out.append((result.matches, result.witness, [dumps(atom) for atom in result.atoms]))
        graph = reachability(view, max_markings=300)
        out.append((len(graph), list(graph.arcs), graph.truncated))
        out.append(sorted(dumps(transition_atom(view, t)) for t in view.transitions))

    reference = net_to_module(validate_net(ring))
    seats = [evaluate(phil_env, "phil_with_forks").retagged(f"s{i}") for i in range(4)]
    cores = seam(seat.with_name(f"seat{i}") for i, seat in enumerate(seats))
    renamed = seam(seat.retagged("c").with_name(f"chair{i}") for i, seat in enumerate(seats))
    out += [
        isomorphic(reference, reference.retagged("c")),  # identity labels: the forced path
        isomorphic(ring, ring.retagged("c")),  # repeated labels: the search
        isomorphic(cores, renamed, IsoOptions(rename_abstract_cores=True)),
    ]
    assert all(out[-3:])

    # the error lists of non-nets
    cores = [node("a", f"x{i}", "alpha") for i in range(3)]
    places = [node("a", f"p{i}", "p") for i in range(3)]
    with pytest.raises(AbstractNodePresent) as abstract:
        validate_net(module(cores))
    arcs = [(places[0].id, places[1].id), (places[2].id, places[0].id), (places[1].id, places[2].id)]
    with pytest.raises(NotBipartite) as unlike:
        validate_net(module(places, edges=arcs))
    with pytest.raises(NotBipartite) as hand_built:
        NetView(frozenset(p.id for p in places), frozenset(), frozenset(arcs)).pre(places[0].id)
    out += [abstract.value.nodes, unlike.value.bad_edges, hand_built.value.bad_edges]

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["reach", str(ring_path), "ring", "--invariant", "sum(eating) <= 0", "--max-markings", "300"])
    out.append((code, stdout.getvalue()))
    assert code == 1 and "invariant violated at marking:" in stdout.getvalue()
    return out


def test_no_output_orders_ids_through_lt(phil_env, prod_env, tmp_path, monkeypatch):
    ring_path = tmp_path / "ring.hkl"
    ring_path.write_text(_ring_source(), encoding="utf-8")
    want = _outputs(phil_env, prod_env, ring_path)

    def refuse(self, other):
        raise AssertionError("node ids ordered through NodeId.__lt__ or __gt__")

    monkeypatch.setattr(NodeId, "__lt__", refuse)
    monkeypatch.setattr(NodeId, "__gt__", refuse)
    with pytest.raises(AssertionError, match="ordered through"):
        sorted([NodeId.single("a", "x"), NodeId.single("a", "y")])
    assert _outputs(phil_env, prod_env, ring_path) == want
