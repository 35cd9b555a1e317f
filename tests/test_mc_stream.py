"""The seeded Monte Carlo streams, pinned, and the draws they rest on.

``chebotarev_mc`` runs every trial of a call, in order, on one
``random.Random(seed)``.  A draw is ``getrandbits(k)``, k the bit length
of |G|, redrawn while it is >= |G|: ``randrange(|G|)``'s own rule, so the
same stream, read as an element-table index.  The pins fix those streams;
the rerun and 3-SE tests in test_chebotarev.py would not notice a changed
stream.  The code order of ``StabChain.random_element`` is pinned here too.
"""

import json
import random

import pytest

from invgen import families
from invgen.chebotarev import McEstimate, chebotarev_mc
from invgen.cli import main
from invgen.generation import build_profile, profile_from_classes
from invgen.group import (PermGroup, StabChain, alternating_group,
                          symmetric_group)
from invgen.perm import Perm
from invgen.structure import fuse_classes_under

from conftest import STRUCT_CAP


def _trivial():
    return PermGroup([Perm.identity(1)])


# -- pinned streams ------------------------------------------------------------

def test_pinned_stream_a5():
    assert chebotarev_mc(alternating_group(5), 2000, seed=42) == McEstimate(
        mean=4.1295, std_error=0.05410941497923223, trials=2000, seed=42)


def test_pinned_stream_a6_fused_under_s6(get_group):
    G = get_group("A6")
    fused = build_profile(G, fusion=fuse_classes_under(G, symmetric_group(6)))
    assert chebotarev_mc(G, 1000, seed=5, profile=fused) == McEstimate(
        mean=4.481, std_error=0.07178294917173454, trials=1000, seed=5)


def test_pinned_stream_c2_4(get_group):
    assert chebotarev_mc(get_group("C2^4"), 1000, seed=3) == McEstimate(
        mean=5.511, std_error=0.05171608602314707, trials=1000, seed=3)


def test_pinned_stream_trivial_group():
    assert chebotarev_mc(_trivial(), 10, seed=9) == McEstimate(
        mean=0.0, std_error=0.0, trials=10, seed=9)


def test_pinned_stream_a8(get_group):
    est = chebotarev_mc(get_group("A8"), 600, seed=1, cap=STRUCT_CAP)
    assert est == McEstimate(mean=4.89,
                             std_error=0.11555123024594885, trials=600, seed=1)


def test_pinned_stream_cli(capsys):
    code = main(["chebotarev", "A5", "--mc", "--seed", "42", "--trials",
                 "2000"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data == {
        "group": "A5", "order": 60,
        "mc": {"mean": 4.1295, "se": 0.05410941497923223, "trials": 2000,
               "seed": 42},
        "ratios": {"c_over_sqrt_order": 0.533116157605451,
                   "c_over_sqrt_order_log": 0.26346907770323996}}


# -- the code order ------------------------------------------------------------

@pytest.mark.parametrize("name", ["S4", "A5", "PSL(2,7)", "AGL(1,13)",
                                  "trivial"])
def test_random_element_is_enumerate_at_its_code(name, get_group):
    """random_element's randrange calls, deepest level first, read as a
    mixed-radix number with the first call most significant, index the
    element it returns in StabChain.enumerate()."""
    G = {"S4": symmetric_group(4), "A5": alternating_group(5),
         "trivial": _trivial()}.get(name) or get_group(name)
    elements = G.chain.enumerate()
    radices = [len(lv.orbit) for lv in reversed(G.chain.levels)]
    for seed in range(5):
        rng1 = random.Random(seed)
        rng2 = random.Random()
        rng2.setstate(rng1.getstate())
        for _ in range(40):
            code = 0
            for n in radices:
                code = code * n + rng2.randrange(n)
            assert G.random_element(rng1) == elements[code]
        assert rng1.getstate() == rng2.getstate()


# -- the draws -----------------------------------------------------------------

def test_draws_are_the_randrange_stream_of_the_order(get_group, monkeypatch):
    """The words getrandbits returns to the kernel, less those >= |G|, are
    randrange(|G|)'s stream, and the generator ends where it would."""
    A6 = get_group("A6")
    groups = [(G, build_profile(G, fusion=fusion)) for G, fusion in (
        (alternating_group(5), None),
        (A6, fuse_classes_under(A6, symmetric_group(6))),
        (get_group("C2^4"), None),      # order 16: half the words are >= 16
        (_trivial(), None))]
    Random = random.Random
    words = []
    made = []

    class Recording(Random):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

        def getrandbits(self, k):
            words.append(super().getrandbits(k))
            return words[-1]

    monkeypatch.setattr(random, "Random", Recording)
    for G, profile in groups:
        words.clear()
        made.clear()
        est = chebotarev_mc(G, 300, seed=4, profile=profile)
        reference = Random(4)
        draws = [reference.randrange(G.order)
                 for _ in range(round(est.mean * est.trials))]
        assert [w for w in words if w < G.order] == draws
        (generator,) = made             # one per call
        assert generator.getstate() == reference.getstate()
    assert words == []                  # the trivial group: no draws


# -- call history --------------------------------------------------------------

def _profiles(G):
    """A6's profiles: fused under S6, plain, and one on the last maximal
    class alone, whose row bits differ from both."""
    plain = build_profile(G)
    fused = build_profile(G, fusion=fuse_classes_under(G, symmetric_group(6)))
    last = plain.num_columns - 1
    column = sum(1 << r for r, row in enumerate(plain.rows) if row >> last & 1)
    alone = profile_from_classes(plain.order, plain.class_sizes,
                                 plain.class_labels, [column],
                                 plain.column_labels[last:])
    return {"fused": fused, "plain": plain, "last": alone}


def test_mc_is_independent_of_call_history(catalog, monkeypatch):
    entry = next(e for e in catalog if e.name == "A6")
    G = families.instantiate(entry)
    profiles = _profiles(G)
    builds = []
    enumerate_ = StabChain.enumerate

    def counting(chain):
        builds.append(chain)
        return enumerate_(chain)

    # the element table is built in _profiles; Monte Carlo draws its
    # indices and enumerates no chain
    monkeypatch.setattr(StabChain, "enumerate", counting)
    got = [chebotarev_mc(G, 300, seed=8, profile=profiles[kind])
           for kind in ("fused", "plain", "fused", "last", "plain")]
    assert builds == []
    monkeypatch.undo()
    fresh = []
    for kind in ("fused", "plain", "fused", "last", "plain"):
        F = families.instantiate(entry)
        fresh.append(chebotarev_mc(F, 300, seed=8, profile=_profiles(F)[kind]))
    assert got == fresh
    assert got[0] == got[2] and got[1] == got[4]
    assert got[3].mean < got[1].mean      # one class dies sooner
