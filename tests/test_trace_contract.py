"""The benchmark's tracer patches library functions by name; a rename in
the library must fail here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

from derange import chains, coupling, limitchain, moments, montecarlo
from derange.chains import ChainKind
from derange.params import PSequence, ThetaSequence

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(*calls):
    """A tracer's counters and the names its spans recorded over calls."""
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        for call in calls:
            call()
    finally:
        tracer.uninstall()
    counts = dict(zip(tracer.counter_names, tracer.counters))
    return counts, {tracer.names[i] for i in tracer.spans()["name"]}


def test_traced_monte_carlo_calls():
    counts, spanned = _traced(
        lambda: montecarlo.estimate("K", ChainKind.eta(1.0), 12, 50, seed=1),
        lambda: montecarlo.gem_diagnostic(1.0, 200, 50, seed=2),
        lambda: montecarlo.clt_diagnostic(ChainKind.eta(1.0), 200, 50, seed=3),
        lambda: chains.sample_path(ChainKind.eta(1.0), 30, 4, 7),
        lambda: chains.generate_signed(12, PSequence.eta(1.0), 0.4, 5, 2))
    errors = {k: v for k, v in counts.items() if k.endswith(".errors")}
    assert errors and not any(errors.values()), errors
    assert counts["montecarlo.words_sampled"] > 0
    assert counts["montecarlo.replicates"] == 150
    # every traced name on the sampler path recorded a span
    assert {"montecarlo.sample_bits", "chains.sample_path",
            "chains.generate_signed"} <= spanned, spanned


def test_traced_no11_calls():
    # the one no-11 pass behind gamma_n, pgf_k, lambda_esf and gamma_inf,
    # as certify-small-n's gamma_inf job and verify suite run it
    ts = ThetaSequence.eta_star(0.5)
    counts, spanned = _traced(
        lambda: limitchain.gamma_inf(3, ts),
        lambda: coupling.gamma_n(ts, 40),
        lambda: coupling.pgf_k(ChainKind.eta(0.5), 0.5, 40),
        lambda: moments.lambda_esf(40, 2.0))
    errors = {k: v for k, v in counts.items() if k.endswith(".errors")}
    assert errors and not any(errors.values()), errors
    assert {"limitchain.gamma_inf", "coupling.gamma_n", "coupling.pgf_k"} <= spanned, spanned
