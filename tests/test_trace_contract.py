"""The benchmark's tracer patches library functions by name; a rename in
the library must fail here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

from derange import chains, montecarlo
from derange.chains import ChainKind
from derange.params import PSequence

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_monte_carlo_calls():
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        montecarlo.estimate("K", ChainKind.eta(1.0), 12, 50, seed=1)
        montecarlo.gem_diagnostic(1.0, 200, 50, seed=2)
        montecarlo.clt_diagnostic(ChainKind.eta(1.0), 200, 50, seed=3)
        chains.sample_path(ChainKind.eta(1.0), 30, 4, 7)
        chains.generate_signed(12, PSequence.eta(1.0), 0.4, 5, 2)
    finally:
        tracer.uninstall()
    counts = dict(zip(tracer.counter_names, tracer.counters))
    errors = {k: v for k, v in counts.items() if k.endswith(".errors")}
    assert errors and not any(errors.values()), errors
    assert counts["montecarlo.words_sampled"] > 0
    assert counts["montecarlo.replicates"] == 150
    # every traced name on the sampler path recorded a span
    spanned = {tracer.names[i] for i in tracer.spans()["name"]}
    assert {"montecarlo.sample_bits", "chains.sample_path",
            "chains.generate_signed"} <= spanned, spanned
