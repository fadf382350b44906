"""Conventions of the public API: a chain is passed as a ``ChainKind``, and
first; a bare ``PSequence`` p is taken only where the quantity belongs to
the derangement chain alone."""

import inspect

import pytest

import derange

# the limit chain X^inf and the parameter layer are built on p itself, and
# signed words are words of the derangement chain
P_OWNERS = ("derange.limitchain", "derange.params")
P_FUNCTIONS = ("generate_signed",)

FUNCTIONS = {name: getattr(derange, name) for name in derange.__all__
             if inspect.isfunction(getattr(derange, name))}


def _takes_p(param: inspect.Parameter) -> bool:
    return param.name == "p" or "PSequence" in str(param.annotation)


def test_functions_are_found():
    assert {"mean_k", "k_distribution", "phi", "generate_signed"} <= set(FUNCTIONS)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_only_derangement_quantities_take_p(name):
    fn = FUNCTIONS[name]
    if fn.__module__ in P_OWNERS or name in P_FUNCTIONS:
        return
    takes = [p.name for p in inspect.signature(fn).parameters.values() if _takes_p(p)]
    assert takes == [], f"{name} takes {takes}; pass a ChainKind"


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_a_chain_kind_comes_first(name):
    params = list(inspect.signature(FUNCTIONS[name]).parameters.values())
    at = [i for i, p in enumerate(params) if "ChainKind" in str(p.annotation)]
    assert at in ([], [0]), f"{name} takes its ChainKind at {at}"
